#include "io/json_export.h"

#include <ostream>

#include "util/simd/dispatch.h"
#include "util/string_util.h"

namespace regcluster {
namespace io {
namespace {

void WriteIntArray(std::ostream& out, const std::vector<int>& v) {
  out << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out << ',';
    out << v[i];
  }
  out << ']';
}

void WriteNameArray(std::ostream& out, const matrix::MatrixStore& data,
                    const std::vector<int>& ids, bool genes) {
  out << '[';
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ',';
    const std::string& name =
        genes ? data.gene_name(ids[i]) : data.condition_name(ids[i]);
    out << '"' << JsonEscape(name) << '"';
  }
  out << ']';
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

util::Status WriteClustersJson(const std::vector<core::RegCluster>& clusters,
                               const matrix::MatrixStore* data,
                               std::ostream& out) {
  return WriteClustersJson(clusters, data, /*outcome=*/nullptr, out);
}

util::Status WriteClustersJson(const std::vector<core::RegCluster>& clusters,
                               const matrix::MatrixStore* data,
                               const core::MineOutcome* outcome,
                               std::ostream& out) {
  return WriteClustersJson(clusters, data, outcome, /*stats=*/nullptr, out);
}

util::Status WriteClustersJson(const std::vector<core::RegCluster>& clusters,
                               const matrix::MatrixStore* data,
                               const core::MineOutcome* outcome,
                               const core::MinerStats* stats,
                               std::ostream& out) {
  if (data != nullptr) {
    for (const core::RegCluster& c : clusters) {
      for (int g : c.AllGenes()) {
        if (g < 0 || g >= data->num_genes()) {
          return util::Status::InvalidArgument(
              util::StrFormat("gene %d outside the matrix", g));
        }
      }
      for (int cond : c.chain) {
        if (cond < 0 || cond >= data->num_conditions()) {
          return util::Status::InvalidArgument(
              util::StrFormat("condition %d outside the matrix", cond));
        }
      }
    }
  }

  out << "{\n";
  if (outcome != nullptr) {
    const bool truncated = outcome->status == core::MineStatus::kTruncated;
    out << "  \"outcome\": {\n"
        << "    \"status\": \"" << (truncated ? "truncated" : "complete")
        << "\",\n    \"stop_reason\": \""
        << util::StopReasonName(outcome->stop_reason)
        << "\",\n    \"nodes_visited\": " << outcome->nodes_visited
        << ",\n    \"roots_completed\": " << outcome->roots_completed
        << ",\n    \"roots_total\": " << outcome->roots_total
        << ",\n    \"wall_seconds\": " << outcome->wall_seconds
        << ",\n    \"peak_scratch_bytes\": " << outcome->peak_scratch_bytes
        << ",\n    \"resume_next_root\": "
        << (truncated ? outcome->roots_completed : -1)
        << ",\n    \"simd\": \""
        << util::simd::LevelName(outcome->simd_level) << "\"\n  },\n";
  }
  if (stats != nullptr) {
    out << "  \"stats\": {\n"
        << "    \"nodes_expanded\": " << stats->nodes_expanded
        << ",\n    \"extensions_tested\": " << stats->extensions_tested
        << ",\n    \"pruned_min_genes\": " << stats->pruned_min_genes
        << ",\n    \"pruned_p_majority\": " << stats->pruned_p_majority
        << ",\n    \"pruned_duplicate\": " << stats->pruned_duplicate
        << ",\n    \"pruned_coherence\": " << stats->pruned_coherence
        << ",\n    \"genes_dropped_min_conds\": "
        << stats->genes_dropped_min_conds
        << ",\n    \"clusters_emitted\": " << stats->clusters_emitted
        << ",\n    \"index_word_ops\": " << stats->index_word_ops
        << ",\n    \"coherence_divide_calls\": "
        << stats->coherence_divide_calls
        << ",\n    \"coherence_scores\": " << stats->coherence_scores
        << ",\n    \"dedup_probes\": " << stats->dedup_probes
        << ",\n    \"rwave_build_seconds\": " << stats->rwave_build_seconds
        << ",\n    \"index_build_seconds\": " << stats->index_build_seconds
        << ",\n    \"mine_seconds\": " << stats->mine_seconds << "\n  },\n";
  }
  out << "  \"num_clusters\": " << clusters.size()
      << ",\n  \"clusters\": [";
  for (size_t i = 0; i < clusters.size(); ++i) {
    const core::RegCluster& c = clusters[i];
    out << (i > 0 ? ",\n    {" : "\n    {");
    out << "\"chain\": ";
    WriteIntArray(out, c.chain);
    if (data != nullptr) {
      out << ", \"chain_names\": ";
      WriteNameArray(out, *data, c.chain, /*genes=*/false);
    }
    out << ", \"p_genes\": ";
    WriteIntArray(out, c.p_genes);
    if (data != nullptr) {
      out << ", \"p_gene_names\": ";
      WriteNameArray(out, *data, c.p_genes, /*genes=*/true);
    }
    out << ", \"n_genes\": ";
    WriteIntArray(out, c.n_genes);
    if (data != nullptr) {
      out << ", \"n_gene_names\": ";
      WriteNameArray(out, *data, c.n_genes, /*genes=*/true);
    }
    out << '}';
  }
  out << "\n  ]\n}\n";
  if (!out) return util::Status::IoError("stream write failed");
  return util::Status::OK();
}

}  // namespace io
}  // namespace regcluster
