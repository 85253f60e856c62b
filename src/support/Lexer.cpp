//===- support/Lexer.cpp - Shared token stream ----------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "support/Lexer.h"

#include <cctype>
#include <charconv>

using namespace reticle;

const char *reticle::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Ident:
    return "identifier";
  case TokenKind::Int:
    return "integer";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Equal:
    return "'='";
  case TokenKind::At:
    return "'@'";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Hole:
    return "'_'";
  case TokenKind::Wildcard:
    return "'?\?'";
  case TokenKind::Eof:
    return "end of input";
  }
  return "unknown";
}

Lexer::Lexer(const std::string &Source) { tokenize(Source); }

const Token &Lexer::peek(unsigned LookAhead) const {
  size_t Index = Cursor + LookAhead;
  if (Index >= Tokens.size())
    Index = Tokens.size() - 1; // Eof sentinel
  return Tokens[Index];
}

const Token &Lexer::next() {
  const Token &Current = peek();
  if (Cursor + 1 < Tokens.size())
    ++Cursor;
  return Current;
}

bool Lexer::accept(TokenKind Kind) {
  if (!at(Kind))
    return false;
  next();
  return true;
}

bool Lexer::atIdent(const std::string &Text) const {
  const Token &Current = peek();
  return Current.Kind == TokenKind::Ident && Current.Text == Text;
}

void Lexer::tokenize(const std::string &Source) {
  unsigned Line = 1, Col = 1;
  size_t I = 0, N = Source.size();

  auto Emit = [&](TokenKind Kind, unsigned TokLine, unsigned TokCol) {
    Token T;
    T.Kind = Kind;
    T.Line = TokLine;
    T.Col = TokCol;
    Tokens.push_back(std::move(T));
  };

  while (I < N) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      Col = 1;
      ++I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++Col;
      ++I;
      continue;
    }
    // Line comments.
    if (C == '/' && I + 1 < N && Source[I + 1] == '/') {
      while (I < N && Source[I] != '\n')
        ++I;
      continue;
    }
    unsigned TokLine = Line, TokCol = Col;
    // Identifiers and keywords. '_' alone is an attribute hole; '_' followed
    // by alphanumerics is a normal identifier character, and identifiers may
    // contain '_' anywhere.
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        ++I;
      std::string Text = Source.substr(Start, I - Start);
      Col += static_cast<unsigned>(I - Start);
      if (Text == "_") {
        Emit(TokenKind::Hole, TokLine, TokCol);
      } else {
        Token T;
        T.Kind = TokenKind::Ident;
        T.Text = std::move(Text);
        T.Line = TokLine;
        T.Col = TokCol;
        Tokens.push_back(std::move(T));
      }
      continue;
    }
    // Integer literals, including negative ones. '-' is only negative when
    // not forming '->'.
    bool NegativeStart =
        C == '-' && I + 1 < N &&
        std::isdigit(static_cast<unsigned char>(Source[I + 1]));
    if (std::isdigit(static_cast<unsigned char>(C)) || NegativeStart) {
      size_t Start = I;
      if (NegativeStart)
        ++I;
      while (I < N && std::isdigit(static_cast<unsigned char>(Source[I])))
        ++I;
      Col += static_cast<unsigned>(I - Start);
      Token T;
      T.Kind = TokenKind::Int;
      T.Line = TokLine;
      T.Col = TokCol;
      // The scan above took only digits, so the one possible failure is a
      // value outside int64.
      if (std::from_chars(Source.data() + Start, Source.data() + I, T.IntValue)
              .ec != std::errc()) {
        Ok = false;
        ErrorMessage = "line " + std::to_string(TokLine) + ":" +
                       std::to_string(TokCol) + ": integer literal '" +
                       Source.substr(Start, I - Start) +
                       "' does not fit in 64 bits";
        Emit(TokenKind::Eof, TokLine, TokCol);
        return;
      }
      Tokens.push_back(std::move(T));
      continue;
    }
    // Two-character punctuation.
    if (C == '-' && I + 1 < N && Source[I + 1] == '>') {
      Emit(TokenKind::Arrow, TokLine, TokCol);
      I += 2;
      Col += 2;
      continue;
    }
    if (C == '?' && I + 1 < N && Source[I + 1] == '?') {
      Emit(TokenKind::Wildcard, TokLine, TokCol);
      I += 2;
      Col += 2;
      continue;
    }
    // Single-character punctuation.
    TokenKind Kind;
    switch (C) {
    case '(':
      Kind = TokenKind::LParen;
      break;
    case ')':
      Kind = TokenKind::RParen;
      break;
    case '[':
      Kind = TokenKind::LBracket;
      break;
    case ']':
      Kind = TokenKind::RBracket;
      break;
    case '{':
      Kind = TokenKind::LBrace;
      break;
    case '}':
      Kind = TokenKind::RBrace;
      break;
    case '<':
      Kind = TokenKind::Less;
      break;
    case '>':
      Kind = TokenKind::Greater;
      break;
    case ',':
      Kind = TokenKind::Comma;
      break;
    case ';':
      Kind = TokenKind::Semi;
      break;
    case ':':
      Kind = TokenKind::Colon;
      break;
    case '=':
      Kind = TokenKind::Equal;
      break;
    case '@':
      Kind = TokenKind::At;
      break;
    case '+':
      Kind = TokenKind::Plus;
      break;
    default:
      Ok = false;
      ErrorMessage = "line " + std::to_string(TokLine) + ":" +
                     std::to_string(TokCol) + ": stray character '" +
                     std::string(1, C) + "'";
      // Stop lexing; parsers check ok() before use.
      Emit(TokenKind::Eof, TokLine, TokCol);
      return;
    }
    Emit(Kind, TokLine, TokCol);
    ++I;
    ++Col;
  }
  Emit(TokenKind::Eof, Line, Col);
}
