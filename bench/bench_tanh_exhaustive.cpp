// Exhaustive check of the exact f32 element-wise kernels (DESIGN.md §2.4):
// for every one of the 2^32 f32 bit patterns — ±0, subnormals, ±inf and
// every NaN payload included —
//   * ag::fwd::tanh_inplace must return (float)std::tanh((double)x), and
//   * ag::fwd::exp_inplace must return std::exp(float), the libm expf this
//     binary runs with,
// bit for bit.  The dtype test suite runs a sub-second sample of the same
// properties; scripts/run_benches.sh runs this sweep (~25 s on 4 cores, most
// of it in the libm references) in its -march=native Release tree and again
// in its sanitizer tree, which has no -march and so rounds every
// multiply-add the compiler would contract separately.
//
// Usage: bench_tanh_exhaustive [--threads N]
// Exit 0 when every pattern matches, 1 on any mismatch (the first few of
// each kernel are printed), 2 on bad arguments.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "tensor/fwd_kernels.h"

int main(int argc, char** argv) {
  unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::max(1, std::atoi(argv[++i])));
    } else {
      std::fprintf(stderr, "usage: %s [--threads N]\n", argv[0]);
      return 2;
    }
  }

  // Chunks of 2^16 consecutive patterns, claimed dynamically; each chunk is
  // one kernel call per kernel, so the vector body runs on nearly every
  // pattern.
  constexpr std::uint64_t kChunk = 1u << 16;
  constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> tanh_bad{0}, exp_bad{0};
  std::mutex print_mu;
  const auto report = [&](std::atomic<std::uint64_t>& bad, const char* name,
                          std::uint32_t bits, std::uint32_t got,
                          std::uint32_t want) {
    if (got != want && bad.fetch_add(1) < 10) {
      const std::lock_guard<std::mutex> lock(print_mu);
      std::printf("%s mismatch: x=0x%08x got 0x%08x want 0x%08x\n", name, bits,
                  got, want);
    }
  };
  const auto work = [&] {
    std::vector<float> t(kChunk), e(kChunk);
    for (std::uint64_t c; (c = next.fetch_add(1)) < kChunks;) {
      const auto base = static_cast<std::uint32_t>(c * kChunk);
      for (std::uint64_t i = 0; i < kChunk; ++i)
        t[i] = e[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
      amdgcnn::ag::fwd::tanh_inplace(t.data(),
                                     static_cast<std::int64_t>(kChunk));
      amdgcnn::ag::fwd::exp_inplace(e.data(),
                                    static_cast<std::int64_t>(kChunk));
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        const auto bits = static_cast<std::uint32_t>(base + i);
        const float x = std::bit_cast<float>(bits);
        report(tanh_bad, "tanh", bits, std::bit_cast<std::uint32_t>(t[i]),
               std::bit_cast<std::uint32_t>(static_cast<float>(
                   std::tanh(static_cast<double>(x)))));
        report(exp_bad, "exp", bits, std::bit_cast<std::uint32_t>(e[i]),
               std::bit_cast<std::uint32_t>(std::exp(x)));
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();

  const auto tb = tanh_bad.load(), eb = exp_bad.load();
  std::printf("tanh_inplace<float>: %llu of 4294967296 patterns differ from "
              "(float)std::tanh((double)x)\n",
              static_cast<unsigned long long>(tb));
  std::printf("exp_inplace<float>: %llu of 4294967296 patterns differ from "
              "std::exp(float)\n",
              static_cast<unsigned long long>(eb));
  return tb == 0 && eb == 0 ? 0 : 1;
}
