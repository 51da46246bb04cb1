// Exhaustive check of the exact f32 tanh kernel (ag::fwd::tanh_inplace,
// DESIGN.md §2.4): every one of the 2^32 f32 bit patterns — ±0,
// subnormals, ±inf and every NaN payload included — must come back
// bit-identical to (float)std::tanh((double)x).  The dtype test suite runs a
// sub-second sample of the same property; scripts/run_benches.sh runs this
// sweep (~12 s on 4 cores, most of it in the libm reference) in its
// -march=native Release tree and again in its sanitizer tree, which has no
// -march and so rounds every multiply-add separately.
//
// Usage: bench_tanh_exhaustive [--threads N]
// Exit 0 when every pattern matches, 1 on any mismatch (the first few are
// printed), 2 on bad arguments.
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
  // one kernel call, so the vector body runs on nearly every pattern.
  constexpr std::uint64_t kChunk = 1u << 16;
  constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::mutex print_mu;
  const auto work = [&] {
    std::vector<float> y(kChunk);
    for (std::uint64_t c; (c = next.fetch_add(1)) < kChunks;) {
      const auto base = static_cast<std::uint32_t>(c * kChunk);
      for (std::uint64_t i = 0; i < kChunk; ++i)
        y[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
      amdgcnn::ag::fwd::tanh_inplace(y.data(),
                                     static_cast<std::int64_t>(kChunk));
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        const auto bits = static_cast<std::uint32_t>(base + i);
        const auto want = std::bit_cast<std::uint32_t>(static_cast<float>(
            std::tanh(static_cast<double>(std::bit_cast<float>(bits)))));
        const auto got = std::bit_cast<std::uint32_t>(y[i]);
        if (got != want && mismatches.fetch_add(1) < 10) {
          const std::lock_guard<std::mutex> lock(print_mu);
          std::printf("mismatch: x=0x%08x got 0x%08x want 0x%08x\n", bits, got,
                      want);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();

  const auto bad = mismatches.load();
  std::printf("tanh_inplace<float>: %llu of 4294967296 patterns differ from "
              "(float)std::tanh((double)x)\n",
              static_cast<unsigned long long>(bad));
  return bad == 0 ? 0 : 1;
}
