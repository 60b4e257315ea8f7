#include "quad/batch_eval.hpp"

namespace bd::quad {

// The scalar reference semantics of a batch: n sequential eval() calls.
// Every override must be bitwise indistinguishable from this loop (values
// and probe streams alike); it also serves integrands that never grow a
// batched path, including test doubles that count eval() calls.
void RadialIntegrand::eval_batch(const double* r, double* out, std::size_t n,
                                 simt::LaneProbe& probe) const {
  for (std::size_t k = 0; k < n; ++k) out[k] = eval(r[k], probe);
}

QuadEstimate simpson_refine_batch(const RadialIntegrand& f, double a,
                                  double b, double fa, double fm, double fb,
                                  simt::LaneProbe& probe,
                                  SimpsonSamples& out) {
  const double m = 0.5 * (a + b);
  out.fa = fa;
  out.fm = fm;
  out.fb = fb;
  const double r[2] = {0.5 * (a + m), 0.5 * (m + b)};
  double fv[2];
  f.eval_batch(r, fv, 2, probe);
  out.fl = fv[0];
  out.fr = fv[1];

  QuadEstimate est = simpson_combine(a, b, out, probe);
  est.evaluations = 2;
  return est;
}

}  // namespace bd::quad
