//===- core/CandidateStore.h - Compact candidate queue store -----*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The candidate priority queue of Algorithm 1, stored compactly: a
/// queued candidate is a 40-byte POD record (parent id, splice point,
/// suffix slice in a shared byte arena, input hash) instead of an owned
/// std::string, and the heap itself is an array of 16-byte
/// (Score, CandidateId, push sequence) entries. A candidate's full input bytes exist only
/// on demand — materialize() walks the parent chain and reassembles the
/// prefix + suffix segments — so queue memory is O(candidates +
/// distinct-suffix-bytes) instead of O(candidates x input-length), and
/// pushing a candidate allocates nothing in steady state.
///
/// Records that share one parent run's new-branch list are chained into a
/// *group* holding the list plus the run-constant heuristic terms
/// (average stack depth, path hash, parent-chain base).
///
/// Scores are settled lazily (Minoux's lazy greedy). The campaign's
/// scoring inputs — vBr, the path-count table and the heuristic switches
/// — form the *tick state*, which moves only at tick() and rescore():
/// between two ticks nothing a stored score depends on changes. A tick is
/// cheap: it lifts this window's requeued prefixes out of a small side
/// heap into the main heap at their formula score. pop() and exportTop()
/// re-score the main heap's top against the tick state and re-push it
/// while the fresh score is below the stored one. That is exact because
/// every stored score is an upper bound of the entry's tick-state score:
/// across ticks branch lists only shrink and path counts only grow, and
/// push-time scores use the run's capture-time branch count and the live
/// path counts, which later tick states can only lower. The O(queue)
/// full pass — recompute every score, trim the worst half past the cap,
/// rebuild the heap — runs only on queue overflow and path-count decay,
/// the one event that lowers counts.
///
/// Determinism contract: pop order is a function of each candidate's
/// current score — its push-time score until the next tick, its
/// tick-state score after — and of push order. Ties break by a total
/// order — higher score first, then
/// the newer push (a per-store push sequence, kept across re-pushes and
/// renumbered order-preservingly before it could wrap) — so the heap
/// layout never matters: the lazy store pops exactly what an eager queue
/// that re-scores everything at every tick pops under the same
/// comparator, and the trim keeps exactly its survivors. In-place group
/// filtering equals copy-on-rescore because vBr only grows, so
/// filter(filter(L, vBr1), vBr2) == filter(L, vBr2) whenever vBr1 is a
/// subset of vBr2. See DESIGN.md §14.
///
/// Constructed with Reference = true the store is that eager queue: a
/// by-value candidate heap (owned std::string + shared_ptr branch list +
/// copy-on-rescore map) that re-scores every candidate at every tick,
/// behind the same interface. The identity sweep test runs both modes and
/// asserts byte-identical reports; the benches use it for honest
/// before/after memory and throughput numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_CORE_CANDIDATESTORE_H
#define PFUZZ_CORE_CANDIDATESTORE_H

#include "core/BranchCoverageMap.h"
#include "core/Heuristic.h"
#include "support/ByteArena.h"
#include "support/FlatHash.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pfuzz {

/// How often each parse path was taken, as of the last tick; owned by
/// the campaign (which folds each window's counts in at ticks and decays
/// it), read by the store through point lookups only.
using PathCountMap = FlatHashMap<uint32_t>;

/// Diagnostic counters of the candidate store. Purely observational:
/// none feed back into the search, so they can vary while the FuzzReport
/// stays byte-identical. Byte figures are sampled (every rescore, every
/// 1024th push, and at campaign end), so PeakBytes is a high-water mark
/// of the sampled points, not of every instant.
struct QueueStats {
  /// Candidates pushed into the queue (substitutions + requeues).
  uint64_t Pushes = 0;
  /// Substitution candidates the campaign dropped before pushing because
  /// an identical input was enqueued earlier (the seen-candidate dedup).
  /// Migrated candidates count their rejects in ShardStats instead.
  uint64_t DuplicateCandidates = 0;
  /// Full rescore passes over the queue (overflow and path decay).
  uint64_t Rescores = 0;
  /// Wall time spent inside full rescore passes.
  uint64_t RescoreNanos = 0;
  /// Ticks: tick-state advances that re-score nothing eagerly (valid
  /// inputs, every 384 executions, vBr-growing shard merges). Full
  /// passes are counted in Rescores only.
  uint64_t Ticks = 0;
  /// Re-pushes made by the settle loop of pop()/exportTop(): a heap top
  /// whose tick-state score fell below its stored score (0 in reference
  /// mode, which re-scores eagerly).
  uint64_t Resettles = 0;
  /// Branch lists filtered against grown coverage (group slices in the
  /// compact store, copy-on-rescore map entries in reference mode).
  uint64_t GroupsFiltered = 0;
  /// Overflow trims (worst-scored half dropped).
  uint64_t Trims = 0;
  /// Candidates dropped by trims.
  uint64_t TrimmedCandidates = 0;
  /// Suffix-arena compactions after trims.
  uint64_t Compactions = 0;
  /// Arena bytes reclaimed by compactions.
  uint64_t ArenaBytesReclaimed = 0;
  /// Path-table decays performed by the campaign (see
  /// PFuzzer.cpp:notePath).
  uint64_t PathDecays = 0;
  /// Sampled high-water mark of total queue memory (records + arena +
  /// heap + group lists; reference mode counts strings and shared lists).
  uint64_t PeakBytes = 0;
  /// High-water mark of queued candidates.
  uint64_t PeakCandidates = 0;
  /// High-water mark of suffix-arena bytes (0 in reference mode).
  uint64_t PeakArenaBytes = 0;
  /// High-water mark of live groups (distinct parent runs with queued
  /// candidates or a live run handle).
  uint64_t PeakGroups = 0;
  /// High-water mark of the campaign's path table.
  uint64_t PeakPathTable = 0;

  /// Sums counters and maxes high-water marks — campaign runners
  /// aggregate per-seed stats into one per-cell total.
  void accumulate(const QueueStats &Other);
};

/// The candidate queue. See the file comment for the two storage modes.
class CandidateStore {
public:
  /// Null record/run id.
  static constexpr uint32_t None = ~0u;

  /// What pop() hands the campaign, besides the materialized input: the
  /// popped record's pin (compact mode; the caller releases it when the
  /// input stops being a potential parent) and the fields the verbose
  /// trace and the next iteration's bookkeeping need.
  struct Popped {
    uint32_t Id = None;
    double Score = 0;
    uint64_t InputHash = 0;
    uint32_t NumParents = 0;
    uint32_t ReplacementLen = 0;
    uint32_t NewBranchCount = 0;
  };

  /// The store scores against the caller's tick state: \p VBr and
  /// \p PathCounts are read (never written) at every tick(), rescore(),
  /// pop() and exportTop(), and must change only right before a tick()
  /// or rescore() call — see the file comment. The heuristic switches
  /// \p Heur are copied: they are fixed for the store's lifetime.
  CandidateStore(bool Reference, size_t MaxQueue, const BranchCoverageMap &VBr,
                 const PathCountMap &PathCounts, const HeuristicOptions &Heur);
  ~CandidateStore();

  CandidateStore(const CandidateStore &) = delete;
  CandidateStore &operator=(const CandidateStore &) = delete;

  /// Mutable so the campaign can fold its own counters (path decays,
  /// path-table peak) into the same sink.
  QueueStats Stats;

  //===--------------------------------------------------------------------===//
  // Lineage (compact mode; no-ops returning None in reference mode)
  //===--------------------------------------------------------------------===//

  /// Interns \p Input as a chain root (campaign start / restart) and
  /// returns its pinned record id.
  uint32_t internRoot(std::string_view Input, uint64_t Hash);

  /// Interns parent[0, SpliceAt) + \p Suffix as a pinned record — the
  /// campaign's random-extension input, so the extension's substitution
  /// children can reference it as their parent. \p ParentInput must be
  /// the parent's full materialized bytes (used to rebase a deep chain,
  /// see maybeRebase).
  uint32_t internChild(uint32_t Parent, size_t SpliceAt,
                       std::string_view ParentInput, std::string_view Suffix,
                       uint64_t Hash);

  /// Drops one pin of \p Id. A record with no pins left is freed and the
  /// release cascades up its parent chain. release(None) is a no-op.
  void release(uint32_t Id);

  //===--------------------------------------------------------------------===//
  // Run lifecycle
  //===--------------------------------------------------------------------===//

  /// Opens a group for one executed run: \p NewBranches (copied; the
  /// campaign's scratch is reusable afterwards) plus the run-constant
  /// heuristic terms every candidate of this run shares. The group is
  /// pinned until releaseRun and lives on while queued members reference
  /// it.
  uint32_t makeRun(const std::vector<uint32_t> &NewBranches,
                   uint64_t FilterEpoch, double AvgStack, uint64_t PathHash,
                   uint32_t NumParentsBase);

  /// Drops the run pin of \p Run (end of the loop iteration that
  /// executed it). releaseRun(None) is a no-op.
  void releaseRun(uint32_t Run);

  //===--------------------------------------------------------------------===//
  // Queue operations
  //===--------------------------------------------------------------------===//

  /// Pushes the candidate parent[0, SpliceAt) + \p Suffix with
  /// \p Score, attached to \p Run's group. \p Hash must be the FNV-1a
  /// hash of the full candidate bytes (the campaign derives it from a
  /// prefix-hash array without building the string). \p ParentDelta is
  /// the candidate's parent-chain growth over the group's base (1 for
  /// substitutions, 0 for migrated imports). \p Score must be an upper
  /// bound of the candidate's formula score at every later tick: the
  /// formula over the run's capture-time branch count and the live path
  /// counts is. Compact mode stores a record + suffix bytes; reference
  /// mode builds the full string from \p ParentInput. The caller checks
  /// queueSize() against its cap and calls rescore(), mirroring the
  /// original push-then-maybe-trim order.
  void push(uint32_t Run, uint32_t Parent, std::string_view ParentInput,
            size_t SpliceAt, std::string_view Suffix, uint64_t Hash,
            uint32_t ReplacementLen, uint32_t ParentDelta, double Score);

  /// Pushes a requeued prefix: the parent record \p Parent itself (bytes
  /// \p Input, an empty suffix spliced at its full length, replacement
  /// length 1, no parent growth), attached to \p Run's group. \p Score
  /// is the formula minus the requeue penalty — below the formula, so not
  /// an upper bound: the entry waits in a side heap, competing at
  /// \p Score, until the next tick lifts it into the main heap at its
  /// formula score and the penalty is gone.
  void pushRequeue(uint32_t Run, uint32_t Parent, std::string_view Input,
                   uint64_t Hash, double Score);

  /// Pops the candidate first in (tick-state score, push sequence) order:
  /// settles the main heap's top (see the file comment), materializes the
  /// input into \p InputOut and returns its metadata. In compact mode
  /// the record stays pinned (the queue pin transfers to the caller).
  Popped pop(std::string &InputOut);

  size_t queueSize() const;
  bool empty() const { return queueSize() == 0; }

  /// Advances the tick state (Algorithm 1 lines 40-43, made lazy): the
  /// caller has just grown vBr or folded path counts. Lifts this window's
  /// requeued prefixes into the main heap at their formula score; every
  /// other entry is settled when it reaches the top. Reference mode
  /// re-scores every candidate instead.
  void tick();

  /// The full pass: a tick that re-scores every queued candidate, drops
  /// the worst half when the queue exceeds its cap, and rebuilds the heap.
  /// Needed on overflow and after a path-count decay (which lowers counts
  /// and so raises scores). Returns true when a trim happened (the
  /// campaign resets its requeue counters on trim, as before).
  bool rescore();

  /// Renumbers the push sequences of every queued candidate densely,
  /// preserving their order, so pop order is unchanged. push() calls it
  /// before the 32-bit counter would wrap; public so tests can interleave
  /// it anywhere.
  void renumberSequences();

  //===--------------------------------------------------------------------===//
  // Shard migration
  //===--------------------------------------------------------------------===//

  /// Everything a candidate needs to cross a shard boundary (see
  /// core/ShardSync.h): full bytes, hash, and the run features an
  /// importing shard rescores against its own coverage. Branches is the
  /// candidate's group list as last filtered *here* — importers re-filter
  /// it against their own vBr, which monotone filtering makes exact.
  struct Exported {
    std::string Bytes;
    uint64_t Hash = 0;
    std::vector<uint32_t> Branches;
    double AvgStack = 0;
    uint64_t PathHash = 0;
    uint32_t NumParents = 0;
    uint32_t ReplacementLen = 0;
  };

  /// Copies the next pop out of the store (settling the heap top first,
  /// as pop() does) without removing it. String buffers of \p Out are
  /// recycled across calls. The queue must not be empty.
  void exportTop(Exported &Out);

  //===--------------------------------------------------------------------===//
  // Accounting
  //===--------------------------------------------------------------------===//

  /// Exact current queue memory: records, suffix arena, heap entries and
  /// group lists in compact mode (O(1): list capacities are a running
  /// total); candidate structs, string heap allocations and distinct
  /// shared branch lists in reference mode.
  size_t bytesInUse() const;

  /// bytesInUse() recounted by walking every group slot's list — the
  /// reference the running total is tested against.
  size_t recountBytesInUse() const;

  /// Folds the current footprint into the Peak* stats. Called
  /// internally at every rescore and every 1024th push; the campaign
  /// calls it once more at the end.
  void samplePeaks();

private:
  /// Immutable branch list shared between every reference-mode candidate
  /// spawned from the same parent run (the pre-store representation).
  using SharedBranches = std::shared_ptr<const std::vector<uint32_t>>;

  /// A compact queued candidate: input = parent[0, SpliceAt) + suffix.
  /// Refs counts pins (one per queue entry, campaign handle, or child
  /// record); a record is freed when it reaches zero.
  struct Record {
    uint64_t InputHash = 0;
    uint32_t Parent = None;
    uint32_t SpliceAt = 0;
    uint32_t SuffixOfs = 0;
    uint32_t SuffixLen = 0;
    uint32_t Group = None;
    uint32_t Refs = 0;
    uint16_t ReplacementLen = 0;
    uint8_t ParentDelta = 0;
    /// Parent-chain length to the nearest root. Bounded by MaxChainDepth:
    /// a record about to gain children at the cap is rebased first (see
    /// maybeRebase), so materialize never walks more than MaxChainDepth+1
    /// records and deep lineages cannot accumulate one ~40-byte ancestry
    /// record per historical byte. Fits the struct's existing padding.
    uint8_t Depth = 0;
  };

  /// Chain-depth cap. Rebasing copies the record's full bytes into the
  /// arena once per MaxChainDepth generations of a lineage — amortized
  /// len/MaxChainDepth arena bytes per record versus one ~40-byte record
  /// per chain link without it — and bounds the materialize walk.
  static constexpr uint8_t MaxChainDepth = 4;

  static_assert(sizeof(Record) == 40,
                "Record outgrew its slot; the queue-memory math in "
                "DESIGN.md section 14 assumes 40-byte records");

  /// One heap element, ordered by (Score, Seq): the higher score first,
  /// then the newer push. Seq is the candidate's push sequence, kept when
  /// the settle loop re-pushes it; entries with Seq >= TickSeq were
  /// pushed since the last tick and hold exact push-time scores.
  struct Entry {
    double Score = 0;
    uint32_t Id = 0;
    uint32_t Seq = 0;
  };

  static_assert(sizeof(Entry) == 16, "Entry outgrew its 16 bytes");

  /// Run-constant data shared by all candidates of one executed run.
  /// Reference mode's shared_ptr list lives in the parallel RefShared
  /// vector, not here: with a few candidates per group the group slab is
  /// a real fraction of compact-mode memory, and a 16-byte field only
  /// reference mode reads would inflate it for nothing.
  struct Group {
    /// Compact mode: the run's new-branch list, filtered in place when a
    /// member is scored against grown coverage (see the file comment for
    /// why that is equivalent to copy-on-rescore).
    std::vector<uint32_t> Branches;
    uint64_t FilterEpoch = 0;
    uint64_t PathHash = 0;
    double AvgStack = 0;
    uint32_t NumParentsBase = 0;
    uint32_t Members = 0;
    bool RunPinned = false;
  };

  static_assert(sizeof(Group) == 64, "Group outgrew its 64 bytes");

  /// A reference-mode candidate — the pre-store by-value layout,
  /// preserved field for field so its memory footprint is the honest
  /// baseline.
  struct RefCandidate {
    std::string Input;
    uint32_t NumParents = 0;
    double AvgStack = 0;
    uint32_t ReplacementLen = 1;
    SharedBranches NewBranches;
    uint64_t FilterEpoch = 0;
    uint64_t PathHash = 0;
    uint64_t InputHash = 0;
    double Score = 0;
    uint64_t Seq = 0;
  };

  uint32_t allocRecord();
  void freeRecord(uint32_t Id);
  void maybeRebase(uint32_t Id, std::string_view Input);
  uint32_t allocGroup();
  void maybeFreeGroup(uint32_t GroupId);
  void unlinkGroup(uint32_t Id);
  void enqueue(uint32_t Run, uint32_t Parent, std::string_view ParentInput,
               size_t SpliceAt, std::string_view Suffix, uint64_t Hash,
               uint32_t ReplacementLen, uint32_t ParentDelta, double Score,
               bool Requeue);
  void reserveEntry();
  void materialize(uint32_t Id, std::string &Out) const;
  double scoreEntry(uint32_t Id);
  std::vector<Entry> &settledHeap();
  void rescoreRef();
  void maybeCompactArena();

  const bool Reference;
  const size_t MaxQueue;
  /// The tick state (see the constructor).
  const BranchCoverageMap &VBr;
  const PathCountMap &PathCounts;
  /// Fixed at construction.
  const HeuristicOptions Heur;
  /// Pushes so far (both modes): paces peak sampling and arena
  /// compaction, and is reference mode's push sequence.
  uint64_t PushTick = 0;

  // Compact mode state.
  std::vector<Record> Records;
  /// Head of the intrusive free list threaded through freed records'
  /// Parent fields — no side vector of free ids.
  uint32_t FreeHead = None;
  /// The main heap: entries whose stored score is an upper bound of
  /// their tick-state score (exact for Seq >= TickSeq).
  std::vector<Entry> Entries;
  /// This window's requeued prefixes, a heap of exact penalized scores
  /// that the next tick lifts into Entries at their formula score.
  std::vector<Entry> Requeues;
  /// The next push sequence, and its value at the last tick.
  uint32_t NextSeq = 0;
  uint32_t TickSeq = 0;
  std::vector<Group> Groups;
  std::vector<uint32_t> FreeGroups;
  ByteArena Arena;
  /// Suffix bytes owned by freed records; compaction reclaims them.
  size_t ArenaGarbage = 0;
  size_t LiveGroups = 0;
  /// Running total of every group slot's branch-list capacity in bytes,
  /// kept wherever a list is assigned or released so bytesInUse() needs
  /// no walk over the group slab.
  size_t ListBytes = 0;

  // Reference mode state.
  std::vector<RefCandidate> RefQueue;
  /// Per-group shared immutable branch list (indexed by group id);
  /// populated in reference mode only — see the Group comment.
  std::vector<SharedBranches> RefShared;
};

} // namespace pfuzz

#endif // PFUZZ_CORE_CANDIDATESTORE_H
