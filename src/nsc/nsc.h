// Umbrella header: the full nsc-vpe public API.
//
// A reproduction of "A Visual Programming Environment for the
// Navier-Stokes Computer" (Tomboulian, Crockett, Middleton; ICASE 88-6 /
// ICPP 1988).  See README.md for a tour; its "Layer map" section is the
// system inventory.
#pragma once

#include "arch/machine.h"          // NSC machine model and microword spec
#include "arch/microword_spec.h"
#include "arch/ops.h"
#include "cfd/jacobi_program.h"    // the paper's example problem
#include "cfd/poisson.h"
#include "checker/checker.h"       // architectural rule validation
#include "compiler/stencil_lang.h" // future-work expression front end
#include "editor/editor.h"         // headless graphical editor
#include "editor/session.h"
#include "editor/window_render.h"
#include "microcode/disasm.h"
#include "microcode/generator.h"   // diagrams -> microcode
#include "nsc/debugger.h"          // Section-6 visual debugger extension
#include "nsc/scripts.h"           // canonical example session scripts
#include "nsc/workbench.h"
#include "program/program.h"       // semantic data structures
#include "program/timing.h"
#include "render/datapath.h"
#include "sim/hypercube.h"         // multi-node NSC
#include "sim/node.h"              // the simulated hardware backend
