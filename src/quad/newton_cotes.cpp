#include "quad/newton_cotes.hpp"

#include <array>

#include "util/check.hpp"

namespace bd::quad {

namespace {
// Normalized weights (sum to 1) for the closed rules on [0,1].
constexpr std::array<double, 2> kW2 = {0.5, 0.5};
constexpr std::array<double, 3> kW3 = {1.0 / 6, 4.0 / 6, 1.0 / 6};
constexpr std::array<double, 4> kW4 = {1.0 / 8, 3.0 / 8, 3.0 / 8, 1.0 / 8};
constexpr std::array<double, 5> kW5 = {7.0 / 90, 32.0 / 90, 12.0 / 90,
                                       32.0 / 90, 7.0 / 90};
constexpr std::array<double, 6> kW6 = {19.0 / 288, 75.0 / 288, 50.0 / 288,
                                       50.0 / 288, 75.0 / 288, 19.0 / 288};
constexpr std::array<double, 7> kW7 = {41.0 / 840,  216.0 / 840, 27.0 / 840,
                                       272.0 / 840, 27.0 / 840,  216.0 / 840,
                                       41.0 / 840};
constexpr std::array<double, 8> kW8 = {
    751.0 / 17280,  3577.0 / 17280, 1323.0 / 17280, 2989.0 / 17280,
    2989.0 / 17280, 1323.0 / 17280, 3577.0 / 17280, 751.0 / 17280};
constexpr std::array<double, 9> kW9 = {
    989.0 / 28350,   5888.0 / 28350, -928.0 / 28350,
    10496.0 / 28350, -4540.0 / 28350, 10496.0 / 28350,
    -928.0 / 28350,  5888.0 / 28350, 989.0 / 28350};
}  // namespace

std::span<const double> newton_cotes_weights(int points) {
  switch (points) {
    case 2: return kW2;
    case 3: return kW3;
    case 4: return kW4;
    case 5: return kW5;
    case 6: return kW6;
    case 7: return kW7;
    case 8: return kW8;
    case 9: return kW9;
    default:
      BD_CHECK_MSG(false, "Newton–Cotes supports 2..9 points, got " << points);
  }
}

}  // namespace bd::quad
