#include "quad/simpson.hpp"

#include <cmath>

namespace bd::quad {

QuadEstimate simpson_combine(double a, double b, const SimpsonSamples& s,
                             simt::LaneProbe& probe) {
  const double h = b - a;
  const double coarse = h / 6.0 * (s.fa + 4.0 * s.fm + s.fb);
  const double fine =
      h / 12.0 * (s.fa + 4.0 * s.fl + 2.0 * s.fm + 4.0 * s.fr + s.fb);
  probe.count_flops(18);

  QuadEstimate est;
  est.error = std::abs(fine - coarse) / 15.0;
  est.integral = fine + (fine - coarse) / 15.0;
  est.evaluations = 0;
  return est;
}

QuadEstimate simpson_estimate_memo(const RadialIntegrand& f, double a,
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
