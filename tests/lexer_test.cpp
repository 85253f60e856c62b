//===- tests/lexer_test.cpp - Lexer unit tests ------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "support/Lexer.h"

#include <gtest/gtest.h>

using namespace reticle;

TEST(Lexer, TokenizesInstructionSyntax) {
  Lexer Lex("t2:i8 = add(t0, t1) @??;");
  EXPECT_TRUE(Lex.ok());
  EXPECT_TRUE(Lex.atIdent("t2"));
  Lex.next();
  EXPECT_TRUE(Lex.accept(TokenKind::Colon));
  EXPECT_TRUE(Lex.atIdent("i8"));
  Lex.next();
  EXPECT_TRUE(Lex.accept(TokenKind::Equal));
  EXPECT_TRUE(Lex.atIdent("add"));
  Lex.next();
  EXPECT_TRUE(Lex.accept(TokenKind::LParen));
  Lex.next(); // t0
  EXPECT_TRUE(Lex.accept(TokenKind::Comma));
  Lex.next(); // t1
  EXPECT_TRUE(Lex.accept(TokenKind::RParen));
  EXPECT_TRUE(Lex.accept(TokenKind::At));
  EXPECT_TRUE(Lex.accept(TokenKind::Wildcard));
  EXPECT_TRUE(Lex.accept(TokenKind::Semi));
  EXPECT_TRUE(Lex.at(TokenKind::Eof));
}

TEST(Lexer, NegativeIntegersAndArrow) {
  Lexer Lex("const[-5] -> x");
  EXPECT_TRUE(Lex.ok());
  Lex.next(); // const
  EXPECT_TRUE(Lex.accept(TokenKind::LBracket));
  ASSERT_TRUE(Lex.at(TokenKind::Int));
  EXPECT_EQ(Lex.next().IntValue, -5);
  EXPECT_TRUE(Lex.accept(TokenKind::RBracket));
  EXPECT_TRUE(Lex.accept(TokenKind::Arrow));
  // A bare '-' (not arrow, not a negative literal start) is a stray char.
  Lexer Stray("x - 3");
  EXPECT_FALSE(Stray.ok());
}

TEST(Lexer, CommentsAreSkipped) {
  Lexer Lex("a // trailing comment with symbols $%^\nb");
  EXPECT_TRUE(Lex.ok());
  EXPECT_TRUE(Lex.atIdent("a"));
  Lex.next();
  EXPECT_TRUE(Lex.atIdent("b"));
  Lex.next();
  EXPECT_TRUE(Lex.at(TokenKind::Eof));
}

TEST(Lexer, HoleVersusIdentifier) {
  Lexer Lex("_ _x x_y");
  EXPECT_TRUE(Lex.ok());
  EXPECT_TRUE(Lex.accept(TokenKind::Hole));
  EXPECT_TRUE(Lex.atIdent("_x"));
  Lex.next();
  EXPECT_TRUE(Lex.atIdent("x_y"));
}

TEST(Lexer, TracksLinesAndColumns) {
  Lexer Lex("a\n  b");
  EXPECT_EQ(Lex.peek().Line, 1u);
  EXPECT_EQ(Lex.peek().Col, 1u);
  Lex.next();
  EXPECT_EQ(Lex.peek().Line, 2u);
  EXPECT_EQ(Lex.peek().Col, 3u);
}

TEST(Lexer, VectorTypePunctuation) {
  Lexer Lex("i8<4>");
  Lex.next(); // i8
  EXPECT_TRUE(Lex.accept(TokenKind::Less));
  ASSERT_TRUE(Lex.at(TokenKind::Int));
  EXPECT_EQ(Lex.next().IntValue, 4);
  EXPECT_TRUE(Lex.accept(TokenKind::Greater));
}

TEST(Lexer, StrayCharacterReportsLocation) {
  Lexer Lex("abc $");
  EXPECT_FALSE(Lex.ok());
  EXPECT_NE(Lex.error().find("stray character"), std::string::npos);
  EXPECT_NE(Lex.error().find("1:5"), std::string::npos);
}

TEST(Lexer, OutOfRangeIntegerReportsLocation) {
  Lexer Pos("reg[99999999999999999999999](a, en)");
  EXPECT_FALSE(Pos.ok());
  EXPECT_NE(Pos.error().find("line 1:5"), std::string::npos) << Pos.error();
  EXPECT_NE(Pos.error().find("99999999999999999999999"), std::string::npos);
  EXPECT_NE(Pos.error().find("does not fit in 64 bits"), std::string::npos);
  // Lexing stops at the bad literal, like a stray character.
  EXPECT_TRUE(Pos.atIdent("reg"));
  Pos.next();
  EXPECT_TRUE(Pos.accept(TokenKind::LBracket));
  EXPECT_TRUE(Pos.at(TokenKind::Eof));

  Lexer Neg("x\n  const[-9223372036854775809]");
  EXPECT_FALSE(Neg.ok());
  EXPECT_NE(Neg.error().find("line 2:9"), std::string::npos) << Neg.error();
  EXPECT_NE(Neg.error().find("-9223372036854775809"), std::string::npos);

  // The int64 extremes themselves still lex.
  Lexer Edge("-9223372036854775808 9223372036854775807");
  ASSERT_TRUE(Edge.ok()) << Edge.error();
  EXPECT_EQ(Edge.next().IntValue, INT64_MIN);
  EXPECT_EQ(Edge.next().IntValue, INT64_MAX);
  EXPECT_TRUE(Edge.at(TokenKind::Eof));
}

TEST(Lexer, PeekAheadDoesNotConsume) {
  Lexer Lex("a b c");
  EXPECT_EQ(Lex.peek(2).Text, "c");
  EXPECT_EQ(Lex.peek().Text, "a");
  EXPECT_EQ(Lex.next().Text, "a");
  EXPECT_EQ(Lex.peek(5).Kind, TokenKind::Eof);
}
