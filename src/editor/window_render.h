// Renders the editor's display window (Figure 5) and its contents —
// icons, pads, wires, labels, the control panel, and the message strip —
// to an ASCII canvas or SVG.  This substitutes for the SunView bitmap
// display (README.md, "Layer map": the headless editor and renderer).
#pragma once

#include <string>

#include "editor/editor.h"

namespace nsc::ed {

// The full Figure-5 window: message strip, control-flow region, drawing
// area with the current pipeline, control panel with palette and buttons.
std::string renderWindowAscii(const Editor& editor);
std::string renderWindowSvg(const Editor& editor);

// Just the current pipeline diagram (Figures 7 and 11).
std::string renderDiagramAscii(const Editor& editor);
std::string renderDiagramSvg(const Editor& editor);

// A lone ALS icon (Figure 4).
std::string renderIconAscii(IconKind kind);

}  // namespace nsc::ed
