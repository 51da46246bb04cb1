// Segment (scatter/gather) operations — the message-passing primitives.
//
// GNN layers express neighborhood aggregation as gather_rows (ops.h) over
// edge sources followed by scatter_add_rows over edge destinations;
// attention normalisation is a softmax *within each destination segment*
// (segment_softmax).  These mirror torch_scatter / PyG's building blocks.
// gat_conv fuses a whole attention layer built from them into one node.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace amdgcnn::ag::ops {

/// out[index[i], :] += src[i, :], out has `num_rows` rows.
/// index values must lie in [0, num_rows).
Tensor scatter_add_rows(const Tensor& src,
                        const std::vector<std::int64_t>& index,
                        std::int64_t num_rows);

/// Fused scatter_add_rows + row-broadcast bias add:
/// out = bias (broadcast over rows); out[index[i], :] += src[i, :].
/// Saves one full pass over the aggregated node matrix per GNN layer
/// compared with scatter_add_rows followed by add_rowvec.
Tensor scatter_add_bias(const Tensor& src,
                        const std::vector<std::int64_t>& index,
                        std::int64_t num_rows, const Tensor& bias);

/// Softmax over rows sharing a segment id, independently per column.
/// scores: [E, H]; segment: E ids in [0, num_segments).
/// out[e, h] = exp(scores[e, h]) / sum_{e': segment[e']=segment[e]}
///             exp(scores[e', h])   (numerically stabilised per segment).
/// Rows of an empty segment do not exist by construction; every input row
/// belongs to exactly one segment, so each output row is a valid softmax
/// weight and the weights of each (segment, column) pair sum to 1.
Tensor segment_softmax(const Tensor& scores,
                       const std::vector<std::int64_t>& segment,
                       std::int64_t num_segments);

/// out[s, :] = sum of src rows with segment id s (dense segment sum).
Tensor segment_sum(const Tensor& src, const std::vector<std::int64_t>& segment,
                   std::int64_t num_segments);

/// Parameters of one edge-attribute GAT layer (nn::GATConv).  w_e and
/// a_edge are undefined for a layer without edge attributes.
struct GatParams {
  Tensor w;       ///< [in, heads*F]
  Tensor a_src;   ///< [1, heads*F]
  Tensor a_dst;   ///< [1, heads*F]
  Tensor w_e;     ///< [edge_dim, heads*F]
  Tensor a_edge;  ///< [1, heads*F]
  Tensor bias;    ///< [1, heads*F]
};

/// One whole GAT layer (paper §III-C, nn::GATConv) as a single tape node.
/// x: [n, in]; (src, dst) directed edges in [0, n) WITHOUT self-loops;
/// edge_attr: [E, edge_dim] aligned with them, at either dtype (it is data:
/// it must not require grad), ignored when p.w_e is undefined.  Self-loops
/// with zero attributes are appended; the result is the pre-activation
/// [n, heads*F] output.  Forward and gradients equal, bit for bit, the chain
/// matmul → gather_rows → heads_dot → add → leaky_relu → segment_softmax →
/// heads_scale → scatter_add_bias it replaces (tests/gat_reference.h); the
/// forward is fwd::gat_layer_fwd, which the frozen engine runs too.
Tensor gat_conv(const Tensor& x, const std::vector<std::int64_t>& src,
                const std::vector<std::int64_t>& dst, const Tensor& edge_attr,
                const GatParams& p, std::int64_t heads, double negative_slope);

}  // namespace amdgcnn::ag::ops
