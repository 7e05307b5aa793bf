// Canonical editor-session scripts shared by benches, examples, and tests.
//
// figure11SessionScript() draws the paper's Figure 11 pipeline (one sweep
// of the point-Jacobi update on an 8^3 grid) step by step — the headless
// stand-in for a human at the Sun-3 working through Figures 5-11.  It
// mirrors cfd::JacobiProgram's sweep A->B instruction exactly (same units,
// streams, and DMA programs), which bench/fig11_jacobi_complete.cpp
// verifies wiring-for-wiring.  figure11SessionChunks() cuts it into the
// command batches of a multi-request session.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace nsc {

inline std::string figure11SessionScript() {
  // Grid 8x8x8: W=64, lo=73, M=366, pre-roll shift=16, reads=382.
  return R"(
pipeline "sweep A->B"
# step 1 (Fig 6/7): select and position the ALSs
place doublet als 4 at 200,120
place doublet als 6 at 200,320
place triplet als 12 at 420,60
place triplet als 13 at 420,300
place triplet als 14 at 420,540
place triplet als 15 at 700,60
# step 2 (Fig 8/9): wire the streams and program the DMA engines
connect plane0.read sd0.in
sd 0 taps=0,1,2
connect plane1.read sd1.in
sd 1 taps=0,16
dma plane0.read base=146 stride=1 count=382 var=u(x-taps)
dma plane1.read base=153 stride=1 count=382 var=u(y-taps)
dma plane2.read base=209 stride=1 count=382 var=u(+W)
dma plane3.read base=81 stride=1 count=382 var=u(-W)
dma plane8.read base=145 stride=1 count=382 var=f
dma plane10.read base=145 stride=1 count=382 var=mask
# step 3 (Fig 10): program the functional units
setop fu20 add
connect sd0.tap2 fu20.a
connect sd0.tap0 fu20.b
setop fu21 add
connect fu20.out fu21.a
connect sd1.tap0 fu21.b
setop fu22 add
connect fu21.out fu22.a
connect sd1.tap1 fu22.b
setop fu23 add
connect plane2.read fu23.a
connect plane3.read fu23.b
setop fu24 add
connect fu23.out fu24.a
connect fu22.out fu24.b
setop fu4 mul
connect plane8.read fu4.a
const fu4 b 0.020408163265306121
setop fu25 sub
connect fu24.out fu25.a
connect fu4.out fu25.b
setop fu26 mul
connect fu25.out fu26.a
const fu26 b 0.16666666666666666
setop fu27 sub
connect fu26.out fu27.a
connect sd0.tap1 fu27.b
setop fu28 abs
connect fu27.out fu28.a
setop fu30 mul
connect fu28.out fu30.a
connect plane10.read fu30.b
setop fu31 max
connect fu30.out fu31.a
accum fu31 b 0.0
setop fu8 cmplt
const fu8 a 0.000001
connect fu31.out fu8.b
cond fu8 0
# step 4: result streams
connect fu26.out plane4.write
connect fu26.out plane5.write
connect fu26.out plane6.write
connect fu26.out plane7.write
dma plane4.write base=161 stride=1 count=366 var=u_next
dma plane5.write base=161 stride=1 count=366 var=u_next
dma plane6.write base=161 stride=1 count=366 var=u_next
dma plane7.write base=161 stride=1 count=366 var=u_next
connect fu31.out plane9.write
dma plane9.write base=0 stride=1 count=1 var=residual
seq next
)";
}

// figure11SessionScript() cut into `chunks` (>= 1) line-balanced command
// batches: chunk c holds lines [n*c/chunks, n*(c+1)/chunks) of the
// script's n lines, so the batches concatenate back to the script and
// their line counts differ by at most one.
inline std::vector<std::string> figure11SessionChunks(int chunks) {
  const std::string script = figure11SessionScript();
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < script.size();) {
    const std::size_t end =
        std::min(script.find('\n', start), script.size() - 1);
    lines.push_back(script.substr(start, end - start + 1));
    start = end + 1;
  }
  std::vector<std::string> out(static_cast<std::size_t>(chunks));
  const std::size_t n = lines.size();
  for (std::size_t c = 0; c < out.size(); ++c) {
    for (std::size_t i = n * c / out.size(); i < n * (c + 1) / out.size();
         ++i) {
      out[c] += lines[i];
    }
  }
  return out;
}

}  // namespace nsc
