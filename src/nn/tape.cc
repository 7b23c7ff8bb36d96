#include "nn/tape.h"

#include <cmath>

#include "nn/kernels.h"

namespace serd::nn {

namespace k = kernels;

TensorPtr Tape::NewResult(size_t rows, size_t cols) {
  if (arena_ != nullptr) return arena_->Allocate(rows, cols);
  auto t = MakeTensor(rows, cols);
  t->EnsureGrad();
  return t;
}

void Tape::Record(std::function<void()> backward_fn) {
  if (!recording_) return;
  nodes_.push_back(std::move(backward_fn));
}

TensorPtr Tape::MatMul(const TensorPtr& a, const TensorPtr& b) {
  SERD_CHECK_EQ(a->cols(), b->rows());
  const size_t m = a->rows(), kk = a->cols(), n = b->cols();
  auto out = NewResult(m, n);
  k::GemmNN(m, n, kk, a->value().data(), b->value().data(),
            out->value().data(), /*accumulate=*/false);
  a->EnsureGrad();
  b->EnsureGrad();
  Record([a, b, out, m, kk, n] {
    // dA += dOut * B^T, dB += A^T * dOut.
    k::GemmNT(m, kk, n, out->grad().data(), b->value().data(),
              a->grad().data(), /*accumulate=*/true);
    k::GemmTN(kk, n, m, a->value().data(), out->grad().data(),
              b->grad().data(), /*accumulate=*/true);
  });
  return out;
}

TensorPtr Tape::Add(const TensorPtr& a, const TensorPtr& b) {
  SERD_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  auto out = NewResult(a->rows(), a->cols());
  k::Add(a->size(), a->value().data(), b->value().data(),
         out->value().data());
  a->EnsureGrad();
  b->EnsureGrad();
  Record([a, b, out] {
    k::AddInto(out->size(), out->grad().data(), a->grad().data());
    k::AddInto(out->size(), out->grad().data(), b->grad().data());
  });
  return out;
}

TensorPtr Tape::AddRowBroadcast(const TensorPtr& x, const TensorPtr& bias) {
  SERD_CHECK_EQ(bias->rows(), 1u);
  SERD_CHECK_EQ(bias->cols(), x->cols());
  auto out = NewResult(x->rows(), x->cols());
  const size_t n = x->cols();
  for (size_t r = 0; r < x->rows(); ++r) {
    k::Add(n, x->value().data() + r * n, bias->value().data(),
           out->value().data() + r * n);
  }
  x->EnsureGrad();
  bias->EnsureGrad();
  Record([x, bias, out, n] {
    k::AddInto(out->size(), out->grad().data(), x->grad().data());
    for (size_t r = 0; r < x->rows(); ++r) {
      k::AddInto(n, out->grad().data() + r * n, bias->grad().data());
    }
  });
  return out;
}

TensorPtr Tape::BiasRelu(const TensorPtr& x, const TensorPtr& bias) {
  SERD_CHECK_EQ(bias->rows(), 1u);
  SERD_CHECK_EQ(bias->cols(), x->cols());
  auto out = NewResult(x->rows(), x->cols());
  const size_t n = x->cols();
  k::BiasRelu(x->rows(), n, x->value().data(), bias->value().data(),
              out->value().data());
  x->EnsureGrad();
  bias->EnsureGrad();
  Record([x, bias, out, n] {
    // The kink gradient convention matches Relu: d/dv max(0, v) = 0 at
    // v <= 0, tested on out->value() (= max(0, x + bias)).
    for (size_t r = 0; r < x->rows(); ++r) {
      const float* ov = out->value().data() + r * n;
      const float* go = out->grad().data() + r * n;
      float* gx = x->grad().data() + r * n;
      float* gb = bias->grad().data();
      for (size_t c = 0; c < n; ++c) {
        if (ov[c] > 0.0f) {
          gx[c] += go[c];
          gb[c] += go[c];
        }
      }
    }
  });
  return out;
}

TensorPtr Tape::Mul(const TensorPtr& a, const TensorPtr& b) {
  SERD_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  auto out = NewResult(a->rows(), a->cols());
  for (size_t i = 0; i < a->size(); ++i) {
    out->value()[i] = a->value()[i] * b->value()[i];
  }
  a->EnsureGrad();
  b->EnsureGrad();
  Record([a, b, out] {
    for (size_t i = 0; i < out->size(); ++i) {
      a->grad()[i] += out->grad()[i] * b->value()[i];
      b->grad()[i] += out->grad()[i] * a->value()[i];
    }
  });
  return out;
}

TensorPtr Tape::Scale(const TensorPtr& x, float s) {
  auto out = NewResult(x->rows(), x->cols());
  k::ScaleCopy(x->size(), s, x->value().data(), out->value().data());
  x->EnsureGrad();
  Record([x, out, s] {
    k::Axpy(out->size(), s, out->grad().data(), x->grad().data());
  });
  return out;
}

TensorPtr Tape::Transpose(const TensorPtr& x) {
  auto out = NewResult(x->cols(), x->rows());
  for (size_t r = 0; r < x->rows(); ++r) {
    for (size_t c = 0; c < x->cols(); ++c) {
      out->at(c, r) = x->at(r, c);
    }
  }
  x->EnsureGrad();
  Record([x, out] {
    for (size_t r = 0; r < x->rows(); ++r) {
      for (size_t c = 0; c < x->cols(); ++c) {
        x->grad()[r * x->cols() + c] += out->grad()[c * out->cols() + r];
      }
    }
  });
  return out;
}

TensorPtr Tape::RowSoftmax(const TensorPtr& x,
                           const std::vector<float>* add_mask) {
  if (add_mask != nullptr) SERD_CHECK_EQ(add_mask->size(), x->size());
  auto out = NewResult(x->rows(), x->cols());
  const size_t n = x->cols();
  k::SoftmaxRows(x->rows(), n, x->value().data(),
                 add_mask != nullptr ? add_mask->data() : nullptr,
                 out->value().data());
  x->EnsureGrad();
  Record([x, out, n] {
    // dX_rc = y_rc * (dY_rc - sum_j dY_rj y_rj)
    for (size_t r = 0; r < x->rows(); ++r) {
      const float* ov = out->value().data() + r * n;
      const float* go = out->grad().data() + r * n;
      float* gx = x->grad().data() + r * n;
      float dot = 0.0f;
      for (size_t c = 0; c < n; ++c) dot += go[c] * ov[c];
      for (size_t c = 0; c < n; ++c) gx[c] += ov[c] * (go[c] - dot);
    }
  });
  return out;
}

TensorPtr Tape::LayerNorm(const TensorPtr& x, const TensorPtr& gamma,
                          const TensorPtr& beta, float eps) {
  SERD_CHECK_EQ(gamma->cols(), x->cols());
  SERD_CHECK_EQ(beta->cols(), x->cols());
  const size_t n = x->cols();
  auto out = NewResult(x->rows(), n);
  if (!recording_) {
    // Inference: no caches for backward.
    k::LayerNormRows(x->rows(), n, x->value().data(), gamma->value().data(),
                     beta->value().data(), eps, out->value().data(),
                     nullptr, nullptr);
    return out;
  }
  // Cache per-row inv-std and the normalized values for backward.
  auto xhat = std::make_shared<std::vector<float>>(x->size());
  auto inv_std = std::make_shared<std::vector<float>>(x->rows());
  k::LayerNormRows(x->rows(), n, x->value().data(), gamma->value().data(),
                   beta->value().data(), eps, out->value().data(),
                   xhat->data(), inv_std->data());
  x->EnsureGrad();
  gamma->EnsureGrad();
  beta->EnsureGrad();
  Record([x, gamma, beta, out, xhat, inv_std, n] {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (size_t r = 0; r < x->rows(); ++r) {
      const float* go = out->grad().data() + r * n;
      const float* hr = xhat->data() + r * n;
      const float* gv = gamma->value().data();
      float sum_dy = 0.0f, sum_dy_xhat = 0.0f;
      for (size_t c = 0; c < n; ++c) {
        const float dy = go[c] * gv[c];
        sum_dy += dy;
        sum_dy_xhat += dy * hr[c];
      }
      float* gx = x->grad().data() + r * n;
      float* gg = gamma->grad().data();
      float* gb = beta->grad().data();
      const float istd = (*inv_std)[r];
      for (size_t c = 0; c < n; ++c) {
        const float dy = go[c] * gv[c];
        gx[c] += istd * (dy - inv_n * sum_dy - hr[c] * inv_n * sum_dy_xhat);
        gg[c] += go[c] * hr[c];
        gb[c] += go[c];
      }
    }
  });
  return out;
}

TensorPtr Tape::Relu(const TensorPtr& x) {
  auto out = NewResult(x->rows(), x->cols());
  k::BiasRelu(x->rows(), x->cols(), x->value().data(), nullptr,
              out->value().data());
  x->EnsureGrad();
  Record([x, out] {
    for (size_t i = 0; i < x->size(); ++i) {
      if (x->value()[i] > 0.0f) x->grad()[i] += out->grad()[i];
    }
  });
  return out;
}

TensorPtr Tape::Gelu(const TensorPtr& x) {
  auto out = NewResult(x->rows(), x->cols());
  k::Gelu(x->size(), x->value().data(), out->value().data());
  x->EnsureGrad();
  Record([x, out] {
    k::GeluGrad(x->size(), x->value().data(), out->grad().data(),
                x->grad().data());
  });
  return out;
}

TensorPtr Tape::Sigmoid(const TensorPtr& x) {
  auto out = NewResult(x->rows(), x->cols());
  for (size_t i = 0; i < x->size(); ++i) {
    out->value()[i] = 1.0f / (1.0f + std::exp(-x->value()[i]));
  }
  x->EnsureGrad();
  Record([x, out] {
    for (size_t i = 0; i < x->size(); ++i) {
      float y = out->value()[i];
      x->grad()[i] += out->grad()[i] * y * (1.0f - y);
    }
  });
  return out;
}

TensorPtr Tape::Tanh(const TensorPtr& x) {
  auto out = NewResult(x->rows(), x->cols());
  for (size_t i = 0; i < x->size(); ++i) {
    out->value()[i] = std::tanh(x->value()[i]);
  }
  x->EnsureGrad();
  Record([x, out] {
    for (size_t i = 0; i < x->size(); ++i) {
      float y = out->value()[i];
      x->grad()[i] += out->grad()[i] * (1.0f - y * y);
    }
  });
  return out;
}

TensorPtr Tape::EmbeddingLookup(const TensorPtr& table,
                                const std::vector<int>& ids) {
  const size_t d = table->cols();
  auto out = NewResult(ids.size(), d);
  for (size_t r = 0; r < ids.size(); ++r) {
    SERD_CHECK(ids[r] >= 0 &&
               static_cast<size_t>(ids[r]) < table->rows())
        << "embedding id out of range: " << ids[r];
    const float* row = table->value().data() +
                       static_cast<size_t>(ids[r]) * d;
    std::copy(row, row + d, out->value().data() + r * d);
  }
  table->EnsureGrad();
  auto ids_copy = std::make_shared<std::vector<int>>(ids);
  Record([table, out, ids_copy, d] {
    for (size_t r = 0; r < ids_copy->size(); ++r) {
      size_t row = static_cast<size_t>((*ids_copy)[r]);
      k::AddInto(d, out->grad().data() + r * d,
                 table->grad().data() + row * d);
    }
  });
  return out;
}

TensorPtr Tape::SliceCols(const TensorPtr& x, size_t start, size_t len) {
  SERD_CHECK_LE(start + len, x->cols());
  auto out = NewResult(x->rows(), len);
  for (size_t r = 0; r < x->rows(); ++r) {
    const float* src = x->value().data() + r * x->cols() + start;
    std::copy(src, src + len, out->value().data() + r * len);
  }
  x->EnsureGrad();
  Record([x, out, start, len] {
    for (size_t r = 0; r < x->rows(); ++r) {
      k::AddInto(len, out->grad().data() + r * len,
                 x->grad().data() + r * x->cols() + start);
    }
  });
  return out;
}

TensorPtr Tape::ConcatCols(const std::vector<TensorPtr>& xs) {
  SERD_CHECK(!xs.empty());
  size_t rows = xs[0]->rows();
  size_t total_cols = 0;
  for (const auto& x : xs) {
    SERD_CHECK_EQ(x->rows(), rows);
    total_cols += x->cols();
  }
  auto out = NewResult(rows, total_cols);
  size_t offset = 0;
  for (const auto& x : xs) {
    for (size_t r = 0; r < rows; ++r) {
      const float* src = x->value().data() + r * x->cols();
      std::copy(src, src + x->cols(),
                out->value().data() + r * total_cols + offset);
    }
    x->EnsureGrad();
    offset += x->cols();
  }
  auto xs_copy = xs;
  Record([xs_copy, out, rows, total_cols] {
    size_t off = 0;
    for (const auto& x : xs_copy) {
      for (size_t r = 0; r < rows; ++r) {
        k::AddInto(x->cols(), out->grad().data() + r * total_cols + off,
                   x->grad().data() + r * x->cols());
      }
      off += x->cols();
    }
  });
  return out;
}

TensorPtr Tape::Dropout(const TensorPtr& x, float p, Rng* rng) {
  if (p <= 0.0f) return x;
  SERD_CHECK(rng != nullptr);
  SERD_CHECK_LT(p, 1.0f);
  auto mask = std::make_shared<std::vector<float>>(x->size());
  float keep_scale = 1.0f / (1.0f - p);
  auto out = NewResult(x->rows(), x->cols());
  for (size_t i = 0; i < x->size(); ++i) {
    (*mask)[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
    out->value()[i] = x->value()[i] * (*mask)[i];
  }
  x->EnsureGrad();
  Record([x, out, mask] {
    for (size_t i = 0; i < x->size(); ++i) {
      x->grad()[i] += out->grad()[i] * (*mask)[i];
    }
  });
  return out;
}

TensorPtr Tape::CrossEntropy(const TensorPtr& logits,
                             const std::vector<int>& targets,
                             int ignore_index) {
  SERD_CHECK_EQ(logits->rows(), targets.size());
  const size_t v = logits->cols();
  auto out = NewResult(1, 1);
  auto probs = std::make_shared<std::vector<float>>(logits->size());
  k::SoftmaxRows(logits->rows(), v, logits->value().data(), nullptr,
                 probs->data());
  size_t counted = 0;
  double total = 0.0;
  for (size_t r = 0; r < logits->rows(); ++r) {
    if (targets[r] == ignore_index) continue;
    SERD_CHECK(targets[r] >= 0 && static_cast<size_t>(targets[r]) < v);
    total += -std::log(
        std::max(1e-12f, (*probs)[r * v + static_cast<size_t>(targets[r])]));
    ++counted;
  }
  SERD_CHECK_GT(counted, 0u) << "cross entropy with no counted targets";
  out->value()[0] = static_cast<float>(total / counted);
  logits->EnsureGrad();
  auto targets_copy = std::make_shared<std::vector<int>>(targets);
  Record([logits, out, probs, targets_copy, ignore_index, v, counted] {
    float g = out->grad()[0] / static_cast<float>(counted);
    for (size_t r = 0; r < logits->rows(); ++r) {
      int t = (*targets_copy)[r];
      if (t == ignore_index) continue;
      const float* pr = probs->data() + r * v;
      float* gl = logits->grad().data() + r * v;
      for (size_t c = 0; c < v; ++c) gl[c] += g * pr[c];
      gl[static_cast<size_t>(t)] -= g;
    }
  });
  return out;
}

TensorPtr Tape::BceWithLogits(const TensorPtr& logits, float target) {
  auto out = NewResult(1, 1);
  double total = 0.0;
  for (size_t i = 0; i < logits->size(); ++i) {
    float x = logits->value()[i];
    // Numerically stable: max(x,0) - x*t + log(1+exp(-|x|)).
    total += std::max(x, 0.0f) - x * target + std::log1p(std::exp(-std::fabs(x)));
  }
  out->value()[0] = static_cast<float>(total / logits->size());
  logits->EnsureGrad();
  Record([logits, out, target] {
    float g = out->grad()[0] / static_cast<float>(logits->size());
    for (size_t i = 0; i < logits->size(); ++i) {
      float s = 1.0f / (1.0f + std::exp(-logits->value()[i]));
      logits->grad()[i] += g * (s - target);
    }
  });
  return out;
}

TensorPtr Tape::MeanAll(const TensorPtr& x) {
  auto out = NewResult(1, 1);
  double total = 0.0;
  for (float v : x->value()) total += v;
  out->value()[0] = static_cast<float>(total / x->size());
  x->EnsureGrad();
  Record([x, out] {
    float g = out->grad()[0] / static_cast<float>(x->size());
    for (size_t i = 0; i < x->size(); ++i) x->grad()[i] += g;
  });
  return out;
}

void Tape::Backward(const TensorPtr& loss) {
  SERD_CHECK_EQ(loss->size(), 1u) << "Backward expects a scalar loss";
  loss->EnsureGrad();
  loss->grad()[0] = 1.0f;
  BackwardFromSeeded();
}

void Tape::BackwardFromSeeded() {
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    (*it)();
  }
}

}  // namespace serd::nn
