// Polynomials over GF(2^m), used by the BCH encoder (generator polynomial)
// and decoder (syndrome/locator/evaluator polynomials).
#pragma once

#include <cstdint>
#include <vector>

#include "gf/gf2m.h"

namespace flex::gf {

/// Dense polynomial; coefficient i multiplies x^i. The zero polynomial is
/// the empty coefficient vector and has degree -1. Invariant: the leading
/// coefficient (if any) is nonzero.
class Poly {
 public:
  Poly() = default;
  explicit Poly(std::vector<Field::Element> coeffs);

  /// The monomial c * x^k.
  static Poly monomial(Field::Element c, std::size_t k);
  static Poly one() { return monomial(1, 0); }

  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }
  bool is_zero() const { return coeffs_.empty(); }
  /// Coefficient of x^i (0 beyond the stored degree).
  Field::Element coeff(std::size_t i) const;
  const std::vector<Field::Element>& coeffs() const { return coeffs_; }

  static Poly add(const Poly& a, const Poly& b);
  static Poly mul(const Field& f, const Poly& a, const Poly& b);
  static Poly scale(const Field& f, const Poly& a, Field::Element c);

  /// Horner evaluation at x.
  Field::Element eval(const Field& f, Field::Element x) const;

  bool operator==(const Poly& other) const = default;

 private:
  void trim();
  std::vector<Field::Element> coeffs_;
};

}  // namespace flex::gf
