//===- place/Floorplan.cpp - Placement floorplan rendering ----------------------===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//

#include "place/Floorplan.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <tuple>
#include <string>
#include <vector>

using namespace reticle;
using namespace reticle::place;
using rasm::AsmInstr;
using rasm::AsmProgram;

namespace {

/// One placed primitive, resolved to a literal slot.
struct Placed {
  const AsmInstr *Instr = nullptr;
  unsigned X = 0;
  unsigned Y = 0;
};

/// True for the cascade-variant operations Cascade.cpp produces; such an
/// instruction at (x, y) feeds (or is fed by) its vertical neighbour over
/// the dedicated cascade routing.
bool isCascadeOp(const AsmInstr &I) {
  const std::string &Name = I.opName();
  auto EndsWith = [&](const char *Suffix) {
    size_t N = std::string(Suffix).size();
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
  };
  return EndsWith("_co") || EndsWith("_cio") || EndsWith("_ci");
}

/// True when the cascade member at (x, y) drives the member above it
/// (heads `_co` and middles `_cio` drive upward; tails `_ci` only
/// receive).
bool drivesUpward(const AsmInstr &I) {
  const std::string &Name = I.opName();
  return Name.size() >= 3 && (Name.compare(Name.size() - 3, 3, "_co") == 0 ||
                              Name.compare(Name.size() - 4, 4, "_cio") == 0);
}

std::vector<Placed> collectPlaced(const AsmProgram &Prog) {
  std::vector<Placed> Out;
  for (const AsmInstr &I : Prog.body()) {
    if (I.isWire() || !I.loc().X.isLit() || !I.loc().Y.isLit())
      continue;
    if (I.loc().X.offset() < 0 || I.loc().Y.offset() < 0)
      continue;
    Out.push_back({&I, static_cast<unsigned>(I.loc().X.offset()),
                   static_cast<unsigned>(I.loc().Y.offset())});
  }
  return Out;
}

std::string xmlEscape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '&':
      Out += "&amp;";
      break;
    case '<':
      Out += "&lt;";
      break;
    case '>':
      Out += "&gt;";
      break;
    case '"':
      Out += "&quot;";
      break;
    default:
      Out.push_back(C);
    }
  }
  return Out;
}

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

// Validated light-mode palette (see docs/OBSERVABILITY.md): blue for LUT
// columns, orange for DSP columns, violet for cascade links; tints for the
// column backgrounds, text inks for labels.
constexpr const char *SurfaceColor = "#fcfcfb";
constexpr const char *TextPrimary = "#0b0b0b";
constexpr const char *TextSecondary = "#52514e";
constexpr const char *GridStroke = "#d9d8d3";
constexpr const char *LutFill = "#2a78d6";
constexpr const char *LutTint = "#cde2fb";
constexpr const char *DspFill = "#eb6834";
constexpr const char *DspTint = "#fbddcf";
constexpr const char *CascadeStroke = "#4a3aa7";

} // namespace

std::string reticle::place::floorplanSvg(const AsmProgram &Prog,
                                         const device::Device &Dev) {
  const std::vector<Placed> Cells = collectPlaced(Prog);
  std::map<std::pair<unsigned, unsigned>, const AsmInstr *> At;
  unsigned MaxUsedRow = 0;
  for (const Placed &P : Cells) {
    At[{P.X, P.Y}] = P.Instr;
    MaxUsedRow = std::max(MaxUsedRow, P.Y);
  }

  unsigned Rows = 1;
  for (const device::Column &C : Dev.columns())
    Rows = std::max(Rows, C.Height);

  // Geometry: row 0 on the bottom; a slim header band for title + legend.
  constexpr unsigned CellW = 26, CellH = 12, ColGap = 2;
  constexpr unsigned MarginL = 34, MarginB = 22, HeaderH = 46;
  unsigned NumCols = std::max(1u, Dev.numColumns());
  unsigned Width = MarginL + NumCols * (CellW + ColGap) + 12;
  unsigned Height = HeaderH + Rows * CellH + MarginB;
  auto CellX = [&](unsigned X) { return MarginL + X * (CellW + ColGap); };
  auto CellY = [&](unsigned Y) { return HeaderH + (Rows - 1 - Y) * CellH; };

  std::string Out;
  appendf(Out,
          "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%u\" "
          "height=\"%u\" viewBox=\"0 0 %u %u\" font-family=\"system-ui, "
          "sans-serif\">\n",
          Width, Height, Width, Height);
  appendf(Out, "<rect width=\"%u\" height=\"%u\" fill=\"%s\"/>\n", Width,
          Height, SurfaceColor);

  // Title and legend.
  appendf(Out,
          "<text x=\"%u\" y=\"16\" font-size=\"12\" font-weight=\"600\" "
          "fill=\"%s\">floorplan: %s on %s</text>\n",
          MarginL, TextPrimary, xmlEscape(Prog.name()).c_str(),
          xmlEscape(Dev.name()).c_str());
  unsigned LegendY = 30;
  appendf(Out, "<rect x=\"%u\" y=\"%u\" width=\"10\" height=\"10\" rx=\"2\" "
               "fill=\"%s\"/>\n",
          MarginL, LegendY, LutFill);
  appendf(Out,
          "<text x=\"%u\" y=\"%u\" font-size=\"10\" fill=\"%s\">lut</text>\n",
          MarginL + 14, LegendY + 9, TextSecondary);
  appendf(Out, "<rect x=\"%u\" y=\"%u\" width=\"10\" height=\"10\" rx=\"2\" "
               "fill=\"%s\"/>\n",
          MarginL + 44, LegendY, DspFill);
  appendf(Out,
          "<text x=\"%u\" y=\"%u\" font-size=\"10\" fill=\"%s\">dsp</text>\n",
          MarginL + 58, LegendY + 9, TextSecondary);
  appendf(Out,
          "<line x1=\"%u\" y1=\"%u\" x2=\"%u\" y2=\"%u\" stroke=\"%s\" "
          "stroke-width=\"2\"/>\n",
          MarginL + 90, LegendY + 5, MarginL + 102, LegendY + 5,
          CascadeStroke);
  appendf(Out,
          "<text x=\"%u\" y=\"%u\" font-size=\"10\" fill=\"%s\">cascade"
          "</text>\n",
          MarginL + 106, LegendY + 9, TextSecondary);

  // Column backgrounds, tinted by resource kind, sized to column height.
  for (unsigned X = 0; X < Dev.numColumns(); ++X) {
    const device::Column &C = Dev.columns()[X];
    if (C.Height == 0)
      continue;
    bool IsDsp = C.Kind == ir::Resource::Dsp;
    appendf(Out,
            "<rect x=\"%u\" y=\"%u\" width=\"%u\" height=\"%u\" rx=\"2\" "
            "fill=\"%s\" stroke=\"%s\" stroke-width=\"0.5\"/>\n",
            CellX(X), CellY(C.Height - 1), CellW, C.Height * CellH,
            IsDsp ? DspTint : LutTint, GridStroke);
    // Column index along the bottom axis, thinned on wide devices.
    if (Dev.numColumns() <= 16 || X % 5 == 0)
      appendf(Out,
              "<text x=\"%u\" y=\"%u\" font-size=\"8\" fill=\"%s\" "
              "text-anchor=\"middle\">%u</text>\n",
              CellX(X) + CellW / 2, HeaderH + Rows * CellH + 12,
              TextSecondary, X);
  }
  // Row axis labels on the left, thinned on tall devices.
  for (unsigned Y = 0; Y < Rows; ++Y)
    if (Rows <= 20 || Y % 10 == 0)
      appendf(Out,
              "<text x=\"%u\" y=\"%u\" font-size=\"8\" fill=\"%s\" "
              "text-anchor=\"end\">%u</text>\n",
              MarginL - 4, CellY(Y) + CellH - 3, TextSecondary, Y);

  // Placed primitives: a filled cell per instruction, with the result name
  // as the label and the full instruction text as the hover title.
  for (const Placed &P : Cells) {
    bool IsDsp = P.Instr->loc().Prim == ir::Resource::Dsp;
    appendf(Out,
            "<rect x=\"%u\" y=\"%u\" width=\"%u\" height=\"%u\" rx=\"2\" "
            "fill=\"%s\" stroke=\"%s\" stroke-width=\"1\">"
            "<title>%s</title></rect>\n",
            CellX(P.X) + 1, CellY(P.Y) + 1, CellW - 2, CellH - 2,
            IsDsp ? DspFill : LutFill, SurfaceColor,
            xmlEscape(P.Instr->str()).c_str());
    std::string Label = P.Instr->dst();
    if (Label.size() > 4)
      Label.resize(4);
    appendf(Out,
            "<text x=\"%u\" y=\"%u\" font-size=\"7\" fill=\"%s\" "
            "text-anchor=\"middle\">%s</text>\n",
            CellX(P.X) + CellW / 2, CellY(P.Y) + CellH - 4, SurfaceColor,
            xmlEscape(Label).c_str());
  }

  // Cascade adjacency: a link from each driving member to the member one
  // row up in the same column.
  for (const Placed &P : Cells) {
    if (!isCascadeOp(*P.Instr) || !drivesUpward(*P.Instr))
      continue;
    auto Up = At.find({P.X, P.Y + 1});
    if (Up == At.end() || !isCascadeOp(*Up->second))
      continue;
    unsigned Cx = CellX(P.X) + CellW / 2;
    appendf(Out,
            "<line x1=\"%u\" y1=\"%u\" x2=\"%u\" y2=\"%u\" stroke=\"%s\" "
            "stroke-width=\"2\" stroke-linecap=\"round\"/>\n",
            Cx, CellY(P.Y) + CellH / 2, Cx, CellY(P.Y + 1) + CellH / 2,
            CascadeStroke);
  }

  Out += "</svg>\n";
  return Out;
}

std::string reticle::place::floorplanAscii(const AsmProgram &Prog,
                                           const device::Device &Dev) {
  const std::vector<Placed> Cells = collectPlaced(Prog);
  std::map<std::pair<unsigned, unsigned>, const AsmInstr *> At;
  unsigned MaxUsedRow = 0;
  for (const Placed &P : Cells) {
    At[{P.X, P.Y}] = P.Instr;
    MaxUsedRow = std::max(MaxUsedRow, P.Y);
  }

  unsigned Tallest = 1;
  for (const device::Column &C : Dev.columns())
    Tallest = std::max(Tallest, C.Height);
  // Tall devices: elide the unused sky above the placement.
  unsigned ShowRows = std::min(Tallest, std::max(MaxUsedRow + 2, 4u));

  std::string Out = "floorplan: " + Prog.name() + " on " + Dev.name() + " (" +
                    std::to_string(Dev.numColumns()) + " cols, " +
                    std::to_string(Tallest) + " rows";
  if (ShowRows < Tallest)
    Out += ", top " + std::to_string(Tallest - ShowRows) + " rows elided";
  Out += ")\n";

  for (unsigned Row = ShowRows; Row-- > 0;) {
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "%4u |", Row);
    Out += Buf;
    for (unsigned X = 0; X < Dev.numColumns(); ++X) {
      const device::Column &C = Dev.columns()[X];
      Out.push_back(' ');
      if (Row >= C.Height) {
        Out.push_back(' '); // beyond this column's extent
        continue;
      }
      auto It = At.find({X, Row});
      if (It == At.end())
        Out.push_back('.');
      else
        Out.push_back(isCascadeOp(*It->second) ? '|' : '#');
    }
    Out.push_back('\n');
  }
  Out += "      ";
  for (unsigned X = 0; X < Dev.numColumns(); ++X) {
    Out.push_back(' ');
    Out.push_back(Dev.columns()[X].Kind == ir::Resource::Dsp ? 'd' : 'l');
  }
  Out += "   ('.' free, '#' placed, '|' cascade member; bottom row is the "
         "column kind)\n";

  // Placement listing, sorted by slot for stable diffs.
  std::vector<Placed> Sorted = Cells;
  std::sort(Sorted.begin(), Sorted.end(), [](const Placed &A, const Placed &B) {
    return std::tie(A.X, A.Y) < std::tie(B.X, B.Y);
  });
  for (const Placed &P : Sorted) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "  (%u, %u)  ", P.X, P.Y);
    Out += Buf;
    Out += P.Instr->dst() + " = " + P.Instr->opName() + "\n";
  }
  return Out;
}
