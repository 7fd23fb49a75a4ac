#include "io/root_ledger.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "core/bicluster.h"

namespace regcluster {
namespace io {

namespace {

constexpr uint32_t kEndianTag = 0x01020304;

// Ledger record tags, in required order.
constexpr uint32_t kTagContext = 1;
constexpr uint32_t kTagRoot = 2;
constexpr uint32_t kTagEnd = 3;

void PutIntVector(std::string* out, const std::vector<int>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (int x : v) PutU32(out, static_cast<uint32_t>(x));
}

util::Status Corrupt(const char* noun, const std::string& what) {
  return util::Status::Corruption(std::string(noun) + " " + what);
}

// MinerStats wire layout: these counters as i64, then these as f64.
using core::MinerStats;
constexpr std::pair<const char*, int64_t MinerStats::*> kStatsCounters[] = {
    {"nodes_expanded", &MinerStats::nodes_expanded},
    {"extensions_tested", &MinerStats::extensions_tested},
    {"pruned_min_genes", &MinerStats::pruned_min_genes},
    {"pruned_p_majority", &MinerStats::pruned_p_majority},
    {"pruned_duplicate", &MinerStats::pruned_duplicate},
    {"pruned_coherence", &MinerStats::pruned_coherence},
    {"genes_dropped_min_conds", &MinerStats::genes_dropped_min_conds},
    {"clusters_emitted", &MinerStats::clusters_emitted},
    {"index_builds", &MinerStats::index_builds},
    {"index_word_ops", &MinerStats::index_word_ops},
    {"coherence_divide_calls", &MinerStats::coherence_divide_calls},
    {"coherence_scores", &MinerStats::coherence_scores},
    {"dedup_probes", &MinerStats::dedup_probes},
};
constexpr std::pair<const char*, double MinerStats::*> kStatsSeconds[] = {
    {"rwave_build_seconds", &MinerStats::rwave_build_seconds},
    {"index_build_seconds", &MinerStats::index_build_seconds},
    {"mine_seconds", &MinerStats::mine_seconds},
};

}  // namespace

// ---------------------------------------------------------------------------
// Record codec.

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutPreamble(std::string* out, std::string_view magic, uint32_t version) {
  out->append(magic);
  PutU32(out, version);
  PutU32(out, kEndianTag);
}

void Cursor::Fail(const char* field, const char* what) {
  if (ok()) {
    status_ = util::Status::Corruption(std::string(what) + " " + noun_ +
                                       " field " + field);
  }
}

bool Cursor::Need(const char* field, uint64_t bytes) {
  if (ok() && remaining() < bytes) Fail(field, "truncated");
  return ok();
}

uint64_t Cursor::ReadLE(const char* field, int bytes) {
  uint64_t v = 0;
  if (!Need(field, static_cast<uint64_t>(bytes))) return v;
  for (int i = 0; i < bytes; ++i) {
    v |= uint64_t{static_cast<unsigned char>(data_[pos_ + i])} << (8 * i);
  }
  pos_ += static_cast<size_t>(bytes);
  return v;
}

void Cursor::ReadU32(const char* field, uint32_t* v) {
  const uint64_t x = ReadLE(field, 4);
  if (ok()) *v = static_cast<uint32_t>(x);
}

void Cursor::ReadU64(const char* field, uint64_t* v) {
  const uint64_t x = ReadLE(field, 8);
  if (ok()) *v = x;
}

void Cursor::ReadI64(const char* field, int64_t* v) {
  const uint64_t x = ReadLE(field, 8);
  if (ok()) *v = static_cast<int64_t>(x);
}

void Cursor::ReadInt(const char* field, int* v) {
  const auto x = static_cast<int64_t>(ReadLE(field, 8));
  if (x < std::numeric_limits<int>::min() ||
      x > std::numeric_limits<int>::max()) {
    Fail(field, "out-of-range");
  }
  if (ok()) *v = static_cast<int>(x);
}

void Cursor::ReadDouble(const char* field, double* v) {
  const uint64_t x = ReadLE(field, 8);
  if (ok()) *v = std::bit_cast<double>(x);
}

void Cursor::ReadBool(const char* field, bool* v) {
  uint32_t x = 0;
  ReadEnum(field, 1, &x);
  if (ok()) *v = x != 0;
}

void Cursor::ReadEnum(const char* field, uint32_t max, uint32_t* v) {
  const uint64_t x = ReadLE(field, 4);
  if (x > max) Fail(field, "out-of-range");
  if (ok()) *v = static_cast<uint32_t>(x);
}

void Cursor::ReadString(const char* field, std::string* v) {
  const uint64_t len = ReadLE(field, 4);
  if (!Need(field, len)) return;
  v->assign(data_.data() + pos_, len);
  pos_ += len;
}

void Cursor::ReadIntVector(const char* field, std::vector<int>* v) {
  const uint64_t count = ReadLE(field, 4);
  if (!Need(field, 4 * count)) return;
  v->resize(count);
  for (int& x : *v) x = static_cast<int>(ReadLE(field, 4));
}

util::Status Cursor::Done(const char* record) const {
  if (ok() && pos_ != data_.size()) {
    return util::Status::Corruption(std::string("trailing bytes in ") + noun_ +
                                    " record " + record);
  }
  return status_;
}

util::StatusOr<Cursor> ReadPreamble(std::string_view bytes, size_t size,
                                    std::string_view magic, const char* noun,
                                    uint32_t* version) {
  if (bytes.size() < size) {
    return Corrupt(noun, "file shorter than preamble");
  }
  if (bytes.substr(0, magic.size()) != magic) {
    return util::Status::Corruption(std::string("bad ") + noun + " magic");
  }
  // `size` covers every field read here, so these reads cannot fail.
  Cursor c(bytes.substr(magic.size(), size - magic.size()), noun);
  uint32_t endian = 0;
  c.ReadU32("version", version);
  c.ReadU32("endian tag", &endian);
  if (endian != kEndianTag) return Corrupt(noun, "endianness mismatch");
  return c;
}

util::StatusOr<Cursor> RecordStream::Next(const char* what, uint32_t* tag) {
  if (reader_.AtEnd()) {
    return util::Status::Corruption(std::string("missing ") + noun_ +
                                    " record " + what);
  }
  auto rec = reader_.Next();
  if (!rec.ok()) return rec.status();
  if (rec->size() < 4) {
    return Corrupt(noun_, std::string("record ") + what +
                              " too short for a tag");
  }
  Cursor c(*rec, noun_);
  c.ReadU32("tag", tag);
  return c;
}

util::StatusOr<Cursor> RecordStream::Expect(uint32_t tag, const char* what) {
  uint32_t got = 0;
  auto c = Next(what, &got);
  if (c.ok() && got != tag) {
    return util::Status::Corruption(std::string("unexpected ") + noun_ +
                                    " record tag where " + what +
                                    " was required");
  }
  return c;
}

void PutMinerStats(std::string* out, const core::MinerStats& s) {
  for (const auto& [name, field] : kStatsCounters) PutI64(out, s.*field);
  for (const auto& [name, field] : kStatsSeconds) PutDouble(out, s.*field);
}

void ReadMinerStats(Cursor* c, core::MinerStats* s,
                    core::MinerStats* total) {
  for (const auto& [name, field] : kStatsCounters) {
    c->ReadI64(name, &(s->*field));
    if (s->*field < 0 ||
        __builtin_add_overflow(total->*field, s->*field, &(total->*field))) {
      c->Fail(name, "out-of-range");
    }
  }
  for (const auto& [name, field] : kStatsSeconds) {
    c->ReadDouble(name, &(s->*field));
  }
}

void PutClusters(std::string* out,
                 const std::vector<core::RegCluster>& clusters) {
  PutU64(out, clusters.size());
  for (const core::RegCluster& c : clusters) {
    PutIntVector(out, c.chain);
    PutIntVector(out, c.p_genes);
    PutIntVector(out, c.n_genes);
  }
}

void ReadClusters(Cursor* c, std::vector<core::RegCluster>* clusters) {
  uint64_t count = 0;
  c->ReadU64("cluster count", &count);
  clusters->clear();
  // Each cluster takes at least its three 4-byte counts, so the payload
  // bounds how much a (possibly damaged) count may reserve.
  clusters->reserve(std::min<uint64_t>(count, c->remaining() / 12));
  for (uint64_t i = 0; i < count && c->ok(); ++i) {
    core::RegCluster cl;
    c->ReadIntVector("cluster chain", &cl.chain);
    c->ReadIntVector("cluster p_genes", &cl.p_genes);
    c->ReadIntVector("cluster n_genes", &cl.n_genes);
    clusters->push_back(std::move(cl));
  }
}

// ---------------------------------------------------------------------------
// The ledger.

core::MinerStats RootLedger::SummedStats() const {
  core::MinerStats sum;
  for (const core::RootMineResult& slice : roots) {
    core::AccumulateStats(slice.stats, &sum);
  }
  return sum;
}

std::vector<core::RegCluster> RootLedger::Output() const {
  std::vector<core::RegCluster> out;
  for (const core::RootMineResult& slice : roots) {
    out.insert(out.end(), slice.clusters.begin(), slice.clusters.end());
  }
  if ((flags & kLedgerFlagRemoveDominated) != 0 && complete()) {
    out = core::RemoveDominated(std::move(out));
  }
  return out;
}

core::MinerOptions SliceOptions(const core::MinerOptions& options) {
  core::MinerOptions slice = options;
  slice.remove_dominated = false;
  return slice;
}

RootLedger NewLedger(const matrix::MatrixStore& data,
                     const core::MinerOptions& options) {
  RootLedger ledger;
  ledger.semantic_options_hash =
      core::RegClusterMiner::SemanticOptionsHash(SliceOptions(options));
  ledger.matrix_hash = HashMatrixContent(data);
  ledger.num_genes = data.num_genes();
  ledger.num_conditions = data.num_conditions();
  ledger.flags = options.remove_dominated ? kLedgerFlagRemoveDominated : 0;
  return ledger;
}

util::Status CheckMatrixIdentity(int64_t num_genes, int64_t num_conditions,
                                 const util::Hash128& matrix_hash,
                                 const matrix::MatrixStore& data, int cols) {
  if (num_genes != data.num_genes() || num_conditions != cols) {
    return util::Status::FailedPrecondition(
        "matrix dimensions differ: snapshot " + std::to_string(num_genes) +
        "x" + std::to_string(num_conditions) + ", matrix " +
        std::to_string(data.num_genes()) + "x" + std::to_string(cols));
  }
  if (HashMatrixContent(data, cols) != matrix_hash) {
    return util::Status::FailedPrecondition(
        cols == data.num_conditions()
            ? "snapshot was written for a different matrix "
              "(content hash mismatch)"
            : "snapshot was written for a different matrix prefix "
              "(appends may only add conditions at the end)");
  }
  return util::Status::OK();
}

util::Status CheckLedgerIdentity(const RootLedger& ledger,
                                 const matrix::MatrixStore& data, int cols,
                                 const core::MinerOptions& options) {
  const uint32_t want_flags =
      options.remove_dominated ? kLedgerFlagRemoveDominated : 0;
  if (ledger.flags != want_flags) {
    return util::Status::FailedPrecondition(
        "snapshot dominance-pass setting differs from the requested options");
  }
  if (ledger.semantic_options_hash !=
      core::RegClusterMiner::SemanticOptionsHash(SliceOptions(options))) {
    return util::Status::FailedPrecondition(
        "snapshot was written under different mining options "
        "(semantic hash mismatch)");
  }
  return CheckMatrixIdentity(ledger.num_genes, ledger.num_conditions,
                             ledger.matrix_hash, data, cols);
}

void EncodeLedgerRecords(const RootLedger& ledger, std::string* out) {
  PutContext(out, kTagContext, ledger.semantic_options_hash, ledger);
  for (const core::RootMineResult& slice : ledger.roots) {
    std::string rec;
    PutU32(&rec, kTagRoot);
    PutU32(&rec, static_cast<uint32_t>(slice.root));
    PutMinerStats(&rec, slice.stats);
    PutClusters(&rec, slice.clusters);
    util::AppendRecord(out, rec);
  }
  std::string end;
  PutU32(&end, kTagEnd);
  PutU64(&end, ledger.roots.size());
  util::AppendRecord(out, end);
}

util::Status DecodeLedgerRecords(RecordStream* in, RootLedger* ledger) {
  const char* noun = in->noun();
  REGCLUSTER_RETURN_IF_ERROR(ReadContext(
      in, kTagContext, &ledger->semantic_options_hash, ledger));
  ledger->roots.clear();
  core::MinerStats total;
  for (;;) {
    uint32_t tag = 0;
    auto c = in->Next("root or end", &tag);
    if (!c.ok()) return c.status();
    if (tag == kTagEnd) {
      uint64_t declared = 0;
      c->ReadU64("root count", &declared);
      REGCLUSTER_RETURN_IF_ERROR(c->Done("end"));
      if (declared != ledger->roots.size()) {
        return Corrupt(noun, "root count does not match its records");
      }
      return util::Status::OK();
    }
    if (tag != kTagRoot) {
      return util::Status::Corruption(std::string("unexpected ") + noun +
                                      " record tag where root or end was "
                                      "required");
    }
    uint32_t root = 0;
    c->ReadU32("root", &root);
    if (c->ok() && (root != ledger->roots.size() ||
                    static_cast<int64_t>(root) >= ledger->num_conditions)) {
      return Corrupt(noun, "root records out of order");
    }
    core::RootMineResult slice;
    slice.root = static_cast<int>(root);
    ReadMinerStats(&*c, &slice.stats, &total);
    ReadClusters(&*c, &slice.clusters);
    REGCLUSTER_RETURN_IF_ERROR(c->Done("root"));
    ledger->roots.push_back(std::move(slice));
  }
}

util::Hash128 HashMatrixContent(const matrix::MatrixStore& data, int cols) {
  if (cols < 0) cols = data.num_conditions();
  util::Fnv128 h;
  h.MixInt(data.num_genes());
  h.MixInt(cols);
  for (int g = 0; g < data.num_genes(); ++g) {
    const std::string& name = data.gene_name(g);
    h.Mix64(static_cast<uint64_t>(name.size()));
    h.MixBytes(name.data(), name.size());
  }
  for (int c = 0; c < cols; ++c) {
    const std::string& name = data.condition_name(c);
    h.Mix64(static_cast<uint64_t>(name.size()));
    h.MixBytes(name.data(), name.size());
  }
  // Cell payload row by row: bit patterns, so NaN layouts hash stably and
  // the resident and mapped paths agree byte for byte.
  for (int g = 0; g < data.num_genes(); ++g) {
    h.MixBytes(data.row_data(g), static_cast<size_t>(cols) * sizeof(double));
  }
  return h.Digest();
}

}  // namespace io
}  // namespace regcluster
