#!/usr/bin/env bash
# Build the Release tree and run the throughput benchmarks, leaving
# BENCH_training.json, BENCH_extraction.json, BENCH_inference.json,
# BENCH_dynamic.json and BENCH_serving.json at the repository root (the
# training and inference benches cover both storage precisions: every
# dataset/model pair gets f64 and f32 rows plus per-dtype determinism /
# bit-identity checks; the dynamic bench gates the overlay-vs-rebuild
# speedup and score-cache coherence; the serving bench gates the >= 2x
# batched warm-pool speedup and the Server bit-identity contracts), then
# re-run the parallel-build determinism/property tests, the dtype suite,
# the forward-only inference suite, the dynamic-graph suite, the scale-tier
# suite (snapshot round-trips, epoch extraction, id-capacity guards), the
# quantized-inference suite (f16 codec, q8 blocks, v3 checkpoint negative
# paths) AND the serving suite (worker pool, batched Server, cache layers)
# under ASan+UBSan (AMDGCNN_SANITIZE=ON) in a separate build tree, plus a
# ThreadSanitizer pass (AMDGCNN_SANITIZE=thread) over the serve, dynamic,
# infer and parallel suites in a third tree.
#
# Both modes check the exact f32 tanh and exp kernels against
# (float)std::tanh((double)x) and std::exp(float) on all 2^32 inputs
# (bench_tanh_exhaustive), once in the Release tree (-march=native:
# FMA-contracted where the host has FMA) and, unless --skip-sanitize, once in
# the sanitizer tree (no -march: every step the compiler would contract
# rounded separately).
#
# Full mode also asserts the benches' wall-clock speedup floors (serving >= 2x
# the per-request baseline, q8 arena >= 1x exact f32, f64 arena >= 1.5x the
# trainer); --smoke, like the CTest smoke runs, gates only on bytes and
# counters.
#
# Usage: scripts/run_benches.sh [--smoke] [--skip-sanitize]
#   --smoke           shrink datasets/iterations (seconds instead of minutes)
#   --skip-sanitize   skip the sanitizer re-runs of the new test layers
#
# AMDGCNN_BENCH_SCALE=full additionally scales the figure benches when run
# by hand; this script only drives the throughput benches.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build"
asan_dir="${repo_root}/build-asan"
tsan_dir="${repo_root}/build-tsan"

bench_args=()
run_sanitize=1
for arg in "$@"; do
  case "${arg}" in
    --smoke) bench_args+=("--smoke") ;;
    --skip-sanitize) run_sanitize=0 ;;
    *)
      echo "unknown argument: ${arg}" >&2
      echo "usage: $0 [--smoke] [--skip-sanitize]" >&2
      exit 2
      ;;
  esac
done

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j \
  --target bench_training_throughput bench_extraction_throughput \
           bench_inference_throughput bench_dynamic_graph \
           bench_serving_throughput bench_tanh_exhaustive

"${build_dir}/bench/bench_tanh_exhaustive"

"${build_dir}/bench/bench_training_throughput" \
  --out "${repo_root}/BENCH_training.json" ${bench_args[@]+"${bench_args[@]}"}
echo "wrote ${repo_root}/BENCH_training.json"

"${build_dir}/bench/bench_extraction_throughput" \
  --out "${repo_root}/BENCH_extraction.json" ${bench_args[@]+"${bench_args[@]}"}
echo "wrote ${repo_root}/BENCH_extraction.json"

"${build_dir}/bench/bench_inference_throughput" \
  --out "${repo_root}/BENCH_inference.json" ${bench_args[@]+"${bench_args[@]}"}
echo "wrote ${repo_root}/BENCH_inference.json"

"${build_dir}/bench/bench_dynamic_graph" \
  --out "${repo_root}/BENCH_dynamic.json" ${bench_args[@]+"${bench_args[@]}"}
echo "wrote ${repo_root}/BENCH_dynamic.json"

"${build_dir}/bench/bench_serving_throughput" \
  --out "${repo_root}/BENCH_serving.json" ${bench_args[@]+"${bench_args[@]}"}
echo "wrote ${repo_root}/BENCH_serving.json"

# A labeled ctest invocation that matches nothing "passes" vacuously (ctest
# exits 0 on zero tests), which would let a renamed suite or a broken label
# silently drop a whole layer from the sanitizer pass.  Fail loudly instead.
require_tests() {
  local dir="$1"; shift
  local count
  count="$(ctest --test-dir "${dir}" -N "$@" | sed -n 's/^Total Tests: //p')"
  if [[ -z "${count}" || "${count}" -eq 0 ]]; then
    echo "FATAL: ctest $* matches no tests in ${dir}" >&2
    exit 1
  fi
}

if [[ "${run_sanitize}" -eq 1 ]]; then
  # The determinism / property / pool tests guard the parallel dataset build,
  # the dtype suite exercises the f32 storage path (dual-width buffer
  # pools, cast boundaries, v2 checkpoints), and the infer suite exercises
  # the bump-pointer arena forward (raw pointer arithmetic over one block);
  # running them under ASan+UBSan catches scratch-buffer misuse (aliasing,
  # use-after-release, short reads across the f32/f64 width change,
  # out-of-arena writes) that the plain build cannot see.
  cmake -B "${asan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAMDGCNN_SANITIZE=ON
  cmake --build "${asan_dir}" -j \
    --target amdgcnn_tests amdgcnn_dtype_tests amdgcnn_infer_tests \
             amdgcnn_dynamic_tests amdgcnn_scale_tests amdgcnn_quant_tests \
             amdgcnn_serve_tests bench_tanh_exhaustive
  # The Release sweep above ran with -march=native; this tree has no -march,
  # so the tanh kernel's multiply-adds round separately (the exp kernel's are
  # explicit std::fma calls) and the 2^32 proof is repeated for that code
  # generation.
  "${asan_dir}/bench/bench_tanh_exhaustive"
  # GatConvOp / GATLayer: the fused GAT layer's pooled saved state and its
  # gradient writes through detail::grad_of, and its vector passes' non-FMA
  # rounding against the scalar oracle in tests/gat_reference.h;
  # ParallelTrainer: the same writes into per-worker gradient sinks;
  # Conv1dOracle: the vectorized conv forward's scratch (transposed weight,
  # zero-padded input rows) and its non-FMA rounding against
  # tests/conv_reference.h (the exp kernel's tests, ExpKernel.*, run with the
  # dtype suite below); MatmulOracle: kern::mm_add's register tiles and
  # narrow-column path, and their non-FMA rounding against
  # tests/matmul_reference.h; Bfs, ShortestPath, VisitEpochMap: the
  # epoch BFS's 8-byte slot map and its row prefetches, whose addresses come
  # from loaded CSR offsets (the scale suite below covers the same hints on
  # mapped and overlay-patched graphs), shortest_path_length's thread-local
  # map and the map's 32-bit epoch wraparound.
  unit_tests='ParallelDatasetBuild|DrnlProperty|ExtractionProperty|DynamicGraphProperty|BufferPool|SortPoolEquivalence|GatConvOp|GATLayer|ParallelTrainer|Conv1dOracle|MatmulOracle|Bfs\.|ShortestPath\.|VisitEpochMap\.'
  require_tests "${asan_dir}" -R "${unit_tests}"
  ctest --test-dir "${asan_dir}" --output-on-failure -R "${unit_tests}"
  require_tests "${asan_dir}" -L dtype
  ctest --test-dir "${asan_dir}" --output-on-failure -L dtype
  # -E: the bench smokes also carry the `infer` / `dynamic` labels, but
  # their speedup floors are calibrated for an uninstrumented Release build.
  require_tests "${asan_dir}" -L infer -E bench_
  ctest --test-dir "${asan_dir}" --output-on-failure -L infer -E bench_
  require_tests "${asan_dir}" -L dynamic -E bench_
  ctest --test-dir "${asan_dir}" --output-on-failure -L dynamic -E bench_
  # The scale tier touches the rawest memory in the tree (mmap'd views, the
  # epoch stamp arrays, the 32-bit local CSR): the snapshot round-trip and
  # kernel-equivalence tests run under the sanitizers too.
  require_tests "${asan_dir}" -L scale
  ctest --test-dir "${asan_dir}" --output-on-failure -L scale
  # The quant tier decodes packed payloads (u16 bit patterns, int8 blocks)
  # into arena scratch and parses the v3 checkpoint byte stream — exactly
  # the kind of code where a short read or an off-by-one block count hides
  # until the sanitizers see it.
  require_tests "${asan_dir}" -L quant
  ctest --test-dir "${asan_dir}" --output-on-failure -L quant
  # The serving runtime hands raw pointers (job function, error collector,
  # result rows) across threads and recycles per-worker arenas between
  # requests — ASan/UBSan over the whole suite catches lifetime misuse.
  # -E: the serving bench smoke also carries the `serve` label, but its 2x
  # speedup floor is calibrated for an uninstrumented Release build.
  require_tests "${asan_dir}" -L serve -E bench_
  ctest --test-dir "${asan_dir}" --output-on-failure -L serve -E bench_
  echo "sanitizer pass over the parallel-build, dtype, infer, dynamic, scale, quant and serve test layers: OK"

  # ThreadSanitizer pass over every suite that runs work on util::WorkerPool:
  # the serving runtime (pool lifecycle, queue, dispatcher), the dynamic and
  # infer suites (parallel predict_links and build_samples over mutating
  # graphs), the parallel dataset build, trainer and parallel_for cases, and
  # the dtype trainer cases (the f32 parallel trainer: per-worker sink
  # zeroing, range-split reduction and Adam step).
  # -E: the bench smokes carry some of these labels too, but their wall-clock
  # floors are calibrated for an uninstrumented Release build.
  cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAMDGCNN_SANITIZE=thread
  cmake --build "${tsan_dir}" -j --target amdgcnn_serve_tests \
    amdgcnn_dynamic_tests amdgcnn_infer_tests amdgcnn_tests \
    amdgcnn_dtype_tests
  for label in serve dynamic infer; do
    require_tests "${tsan_dir}" -L "${label}" -E bench_
    ctest --test-dir "${tsan_dir}" --output-on-failure -L "${label}" -E bench_
  done
  parallel_tests='ParallelDatasetBuild|ParallelTrainer|ParallelFor|DtypeTrainer'
  require_tests "${tsan_dir}" -R "${parallel_tests}" -E bench_
  ctest --test-dir "${tsan_dir}" --output-on-failure -R "${parallel_tests}" \
    -E bench_
  echo "ThreadSanitizer pass over the serve, dynamic, infer and parallel suites: OK"
fi
