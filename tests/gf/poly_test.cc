#include "gf/poly.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gf/gf2m.h"

namespace flex::gf {
namespace {

Poly random_poly(const Field& f, Rng& rng, int max_degree) {
  std::vector<Field::Element> coeffs(
      static_cast<std::size_t>(rng.below(max_degree + 1) + 1));
  for (auto& c : coeffs) c = static_cast<Field::Element>(rng.below(f.size()));
  return Poly(std::move(coeffs));
}

TEST(PolyTest, ZeroPolynomial) {
  Poly p;
  EXPECT_TRUE(p.is_zero());
  EXPECT_EQ(p.degree(), -1);
  EXPECT_EQ(p.coeff(0), 0u);
  EXPECT_EQ(p.coeff(99), 0u);
}

TEST(PolyTest, TrimsLeadingZeros) {
  Poly p({1, 2, 0, 0});
  EXPECT_EQ(p.degree(), 1);
}

TEST(PolyTest, AdditionIsXor) {
  Poly a({1, 2, 3});
  Poly b({3, 2, 3});
  const Poly sum = Poly::add(a, b);
  EXPECT_EQ(sum.degree(), 0);
  EXPECT_EQ(sum.coeff(0), 2u);
}

TEST(PolyTest, AddIsOwnInverse) {
  const Field f(5);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Poly a = random_poly(f, rng, 10);
    EXPECT_TRUE(Poly::add(a, a).is_zero());
  }
}

TEST(PolyTest, MulDegreeAndEval) {
  const Field f(6);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const Poly a = random_poly(f, rng, 8);
    const Poly b = random_poly(f, rng, 8);
    const Poly ab = Poly::mul(f, a, b);
    if (!a.is_zero() && !b.is_zero()) {
      EXPECT_EQ(ab.degree(), a.degree() + b.degree());
    }
    // Evaluation is a ring homomorphism.
    const auto x = static_cast<Field::Element>(rng.below(f.size()));
    EXPECT_EQ(ab.eval(f, x), f.mul(a.eval(f, x), b.eval(f, x)));
  }
}

TEST(PolyTest, ScaleMatchesMonomialMul) {
  const Field f(5);
  Rng rng(5);
  const Poly a = random_poly(f, rng, 7);
  const auto c = static_cast<Field::Element>(1 + rng.below(f.size() - 1));
  EXPECT_EQ(Poly::scale(f, a, c), Poly::mul(f, a, Poly::monomial(c, 0)));
}

TEST(PolyTest, EvalHorner) {
  const Field f(4);
  // p(x) = 1 + x + x^2 at x = alpha: compare against explicit powers.
  Poly p({1, 1, 1});
  const Field::Element alpha = f.alpha_pow(1);
  const Field::Element expected =
      Field::add(Field::add(1, alpha), f.mul(alpha, alpha));
  EXPECT_EQ(p.eval(f, alpha), expected);
}

}  // namespace
}  // namespace flex::gf
