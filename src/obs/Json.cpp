//===- obs/Json.cpp - Minimal JSON document model ------------------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace reticle;
using namespace reticle::obs;

Json &Json::set(std::string Key, Json Value) {
  assert(isObject() && "set on a non-object");
  for (auto &[Name, Existing] : Obj)
    if (Name == Key) {
      Existing = std::move(Value);
      return *this;
    }
  Obj.emplace_back(std::move(Key), std::move(Value));
  return *this;
}

const Json *Json::find(std::string_view Key) const {
  if (!isObject())
    return nullptr;
  for (const auto &[Name, Value] : Obj)
    if (Name == Key)
      return &Value;
  return nullptr;
}

std::string Json::quote(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size() + 2);
  Out.push_back('"');
  for (unsigned char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  Out.push_back('"');
  return Out;
}

void Json::write(std::string &Out, unsigned Indent, unsigned Depth) const {
  auto Newline = [&](unsigned Level) {
    if (Indent == 0)
      return;
    Out.push_back('\n');
    Out.append(static_cast<size_t>(Indent) * Level, ' ');
  };
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Int: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(I));
    Out += Buf;
    break;
  }
  case Kind::Double: {
    if (!std::isfinite(D)) {
      Out += "null"; // JSON has no NaN/Inf
      break;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.12g", D);
    Out += Buf;
    break;
  }
  case Kind::String:
    Out += quote(S);
    break;
  case Kind::Array: {
    if (Arr.empty()) {
      Out += "[]";
      break;
    }
    Out.push_back('[');
    for (size_t Index = 0; Index < Arr.size(); ++Index) {
      if (Index)
        Out.push_back(',');
      Newline(Depth + 1);
      Arr[Index].write(Out, Indent, Depth + 1);
    }
    Newline(Depth);
    Out.push_back(']');
    break;
  }
  case Kind::Object: {
    if (Obj.empty()) {
      Out += "{}";
      break;
    }
    Out.push_back('{');
    for (size_t Index = 0; Index < Obj.size(); ++Index) {
      if (Index)
        Out.push_back(',');
      Newline(Depth + 1);
      Out += quote(Obj[Index].first);
      Out.push_back(':');
      if (Indent)
        Out.push_back(' ');
      Obj[Index].second.write(Out, Indent, Depth + 1);
    }
    Newline(Depth);
    Out.push_back('}');
    break;
  }
  }
}

std::string Json::str(unsigned Indent) const {
  std::string Out;
  write(Out, Indent, 0);
  return Out;
}

namespace {

/// Strict recursive-descent JSON parser over a string_view.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Result<Json> run() {
    Result<Json> Value = parseValue(0);
    if (!Value)
      return Value;
    skipWs();
    if (Pos != Text.size())
      return err("trailing characters after the top-level value");
    return Value;
  }

private:
  static constexpr unsigned MaxDepth = 200;

  template <typename T = Json> Result<T> err(const std::string &What) const {
    return fail<T>("json: " + What + " at offset " + std::to_string(Pos));
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  Result<Json> parseValue(unsigned Depth) {
    if (Depth > MaxDepth)
      return err("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return err("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Depth);
    if (C == '[')
      return parseArray(Depth);
    if (C == '"') {
      Result<std::string> S = parseString();
      if (!S)
        return fail<Json>(S.error());
      return Json(S.take());
    }
    if (literal("true"))
      return Json(true);
    if (literal("false"))
      return Json(false);
    if (literal("null"))
      return Json();
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber();
    return err(std::string("unexpected character '") + C + "'");
  }

  Result<Json> parseNumber() {
    size_t Start = Pos;
    if (consume('-')) {
    }
    size_t IntStart = Pos;
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
      ++Pos;
    // RFC 8259: no leading zeros ("01"), and the integer part is required.
    if (Pos - IntStart > 1 && Text[IntStart] == '0')
      return err("malformed number (leading zero)");
    if (Pos == IntStart)
      return err("malformed number");
    bool IsDouble = false;
    if (consume('.')) {
      IsDouble = true;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsDouble = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    std::string Token(Text.substr(Start, Pos - Start));
    if (Token.empty() || Token == "-")
      return err("malformed number");
    errno = 0;
    if (!IsDouble) {
      char *End = nullptr;
      long long V = std::strtoll(Token.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0')
        return Json(static_cast<int64_t>(V));
      // Fall through to double on overflow.
    }
    char *End = nullptr;
    errno = 0;
    double V = std::strtod(Token.c_str(), &End);
    if (errno != 0 || !End || *End != '\0')
      return err("malformed number '" + Token + "'");
    return Json(V);
  }

  Result<std::string> parseString() {
    if (!consume('"'))
      return fail<std::string>("json: expected '\"' at offset " +
                               std::to_string(Pos));
    std::string Out;
    while (true) {
      if (Pos >= Text.size())
        return err<std::string>("unterminated string");
      // The offset names the control character itself, so a raw newline
      // reports the line it ends.
      if (static_cast<unsigned char>(Text[Pos]) < 0x20)
        return err<std::string>("raw control character in string");
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= Text.size())
        return err<std::string>("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        Result<uint32_t> Unit = parseHex4();
        if (!Unit)
          return fail<std::string>(Unit.error());
        uint32_t Code = Unit.value();
        // Surrogate pair: a high surrogate must be followed by \uXXXX low.
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          if (Pos + 1 < Text.size() && Text[Pos] == '\\' &&
              Text[Pos + 1] == 'u') {
            Pos += 2;
            Result<uint32_t> Low = parseHex4();
            if (!Low)
              return fail<std::string>(Low.error());
            if (Low.value() >= 0xDC00 && Low.value() <= 0xDFFF)
              Code = 0x10000 + ((Code - 0xD800) << 10) +
                     (Low.value() - 0xDC00);
            else
              return fail<std::string>("json: invalid low surrogate");
          } else {
            return fail<std::string>("json: lone high surrogate");
          }
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          return fail<std::string>("json: lone low surrogate");
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail<std::string>(std::string("json: invalid escape '\\") + E +
                                 "'");
      }
    }
  }

  Result<uint32_t> parseHex4() {
    if (Pos + 4 > Text.size())
      return fail<uint32_t>("json: truncated \\u escape");
    uint32_t Value = 0;
    for (int K = 0; K < 4; ++K) {
      char C = Text[Pos++];
      Value <<= 4;
      if (C >= '0' && C <= '9')
        Value |= static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Value |= static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Value |= static_cast<uint32_t>(C - 'A' + 10);
      else
        return fail<uint32_t>("json: bad hex digit in \\u escape");
    }
    return Value;
  }

  static void appendUtf8(std::string &Out, uint32_t Code) {
    if (Code < 0x80) {
      Out.push_back(static_cast<char>(Code));
    } else if (Code < 0x800) {
      Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    } else if (Code < 0x10000) {
      Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    } else {
      Out.push_back(static_cast<char>(0xF0 | (Code >> 18)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 12) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    }
  }

  Result<Json> parseArray(unsigned Depth) {
    consume('[');
    Json Out = Json::array();
    skipWs();
    if (consume(']'))
      return Out;
    while (true) {
      Result<Json> Element = parseValue(Depth + 1);
      if (!Element)
        return Element;
      Out.push(Element.take());
      skipWs();
      if (consume(']'))
        return Out;
      if (!consume(','))
        return err("expected ',' or ']' in array");
    }
  }

  Result<Json> parseObject(unsigned Depth) {
    consume('{');
    Json Out = Json::object();
    skipWs();
    if (consume('}'))
      return Out;
    while (true) {
      skipWs();
      Result<std::string> Key = parseString();
      if (!Key)
        return fail<Json>(Key.error());
      skipWs();
      if (!consume(':'))
        return err("expected ':' after object key");
      Result<Json> Value = parseValue(Depth + 1);
      if (!Value)
        return Value;
      Out.set(Key.take(), Value.take());
      skipWs();
      if (consume('}'))
        return Out;
      if (!consume(','))
        return err("expected ',' or '}' in object");
    }
  }

  std::string_view Text;
  size_t Pos = 0;
};

} // namespace

Result<Json> Json::parse(std::string_view Text) { return Parser(Text).run(); }
