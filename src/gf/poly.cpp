#include "gf/poly.h"

#include <algorithm>

namespace flex::gf {

Poly::Poly(std::vector<Field::Element> coeffs) : coeffs_(std::move(coeffs)) {
  trim();
}

Poly Poly::monomial(Field::Element c, std::size_t k) {
  if (c == 0) return Poly{};
  std::vector<Field::Element> v(k + 1, 0);
  v[k] = c;
  return Poly(std::move(v));
}

Field::Element Poly::coeff(std::size_t i) const {
  return i < coeffs_.size() ? coeffs_[i] : 0;
}

void Poly::trim() {
  while (!coeffs_.empty() && coeffs_.back() == 0) coeffs_.pop_back();
}

Poly Poly::add(const Poly& a, const Poly& b) {
  std::vector<Field::Element> out(std::max(a.coeffs_.size(), b.coeffs_.size()),
                                  0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = Field::add(a.coeff(i), b.coeff(i));
  }
  return Poly(std::move(out));
}

Poly Poly::mul(const Field& f, const Poly& a, const Poly& b) {
  if (a.is_zero() || b.is_zero()) return Poly{};
  std::vector<Field::Element> out(a.coeffs_.size() + b.coeffs_.size() - 1, 0);
  for (std::size_t i = 0; i < a.coeffs_.size(); ++i) {
    if (a.coeffs_[i] == 0) continue;
    for (std::size_t j = 0; j < b.coeffs_.size(); ++j) {
      out[i + j] = Field::add(out[i + j], f.mul(a.coeffs_[i], b.coeffs_[j]));
    }
  }
  return Poly(std::move(out));
}

Poly Poly::scale(const Field& f, const Poly& a, Field::Element c) {
  if (c == 0) return Poly{};
  std::vector<Field::Element> out(a.coeffs_);
  for (auto& x : out) x = f.mul(x, c);
  return Poly(std::move(out));
}

Field::Element Poly::eval(const Field& f, Field::Element x) const {
  Field::Element acc = 0;
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    acc = Field::add(f.mul(acc, x), coeffs_[i]);
  }
  return acc;
}

}  // namespace flex::gf
