/**
 * @file
 * Synthetic server-workload generator.
 *
 * Models a request-serving application: the instruction stream is a
 * sequence of *request executions*, each of which walks a long,
 * mostly-fixed path of code pages (the deep call chain through
 * application + framework + library code). This is the structure that
 * gives real server iSTLB miss streams the properties the paper
 * characterises in Section 3.3:
 *
 * - request paths revisit the same page sequences execution after
 *   execution, so consecutive-miss pairs repeat (Markov
 *   predictability; Findings 3/4),
 * - page popularity is tiered: *hot* pages shared by many request
 *   types stay STLB-resident; a *warm* band of per-request pages is
 *   revisited at intervals beyond the STLB eviction timescale and
 *   produces ~90% of the iSTLB misses on a few hundred pages
 *   (Finding 2 / Figure 6); a *cold* tail is rarely touched,
 * - paths favour small forward/backward hops within a library, so
 *   deltas 1-10 cover roughly a fifth of consecutive misses
 *   (Finding 1 / Figure 5),
 * - phase changes re-generate part of the request mix, which is what
 *   stresses RLFU's periodic frequency-stack reset,
 * - a large, hot data side contends with instructions for the shared
 *   STLB (the paper measures ~58% of STLB misses from data).
 *
 * A workload is fully determined by its parameter struct (including
 * the seed), so all 45 "QMM-like" workloads are reproducible.
 */

#ifndef MORRIGAN_WORKLOAD_SERVER_WORKLOAD_HH
#define MORRIGAN_WORKLOAD_SERVER_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/rng.hh"
#include "common/zipf.hh"
#include "workload/trace.hh"

namespace morrigan
{

/** Static configuration of one synthetic server workload. */
struct ServerWorkloadParams
{
    std::string name = "server";
    std::uint64_t seed = 1;

    // --- code layout ---
    /** Total code footprint in 4KB pages. */
    std::uint32_t codePages = 3000;
    /** Virtual segments the code is split across (binary + libs). */
    std::uint32_t codeSegments = 4;
    /** Gap between segments in pages. Real loaders place the binary
     * and its libraries within tens of MB of each other, so most
     * inter-page distances fit IRIP's 15-bit range while the widest
     * spans do not (exercising the out-of-range path). */
    std::uint64_t segmentGapPages = 2048;

    // --- page popularity tiers ---
    /** Hot tier size (shared framework code, mostly resident). */
    std::uint32_t hotCodePages = 192;
    /** Zipf skew within the hot tier. */
    double zipfTheta = 0.30;
    /** Fraction of path pages drawn from the hot tier. */
    double hotShare = 0.845;
    /** Warm band size (the miss-generating pages). */
    std::uint32_t warmCodePages = 600;
    /** Fraction of path pages drawn from the warm band; the
     * remainder (1 - hotShare - warmShare) hits the cold tail. */
    double warmShare = 0.24;

    // --- request structure ---
    /** Number of distinct request types (paths). */
    std::uint32_t numRequestTypes = 48;
    /** Zipf skew of the request-type mix. */
    double typeZipfTheta = 0.95;
    /** Mean pages per request path. */
    std::uint32_t meanPathLength = 160;
    /** Mean instructions executed per page visit (geometric). */
    double meanRunLength = 90.0;
    /** Probability a path step is a near hop (delta 1-10) from the
     * previous path page rather than a fresh tiered sample. */
    double pNearSuccessor = 0.18;
    /** Probability a path step momentarily deviates to a random hot
     * page (interrupt/helper call) before resuming the path. */
    double pDeviate = 0.02;

    // --- data side ---
    /** Probability an instruction carries a data access. */
    double dataAccessProb = 0.35;
    /** Hot data working set in 4KB pages (mostly STLB-resident). */
    std::uint32_t dataHotPages = 320;
    /** Zipf skew within the hot data region. */
    double dataHotZipf = 0.80;
    /** Cold data footprint in 4KB pages (big-data tail). */
    std::uint32_t dataColdPages = 1 << 18;
    /** Probability a data access goes to a uniformly random cold
     * page; this knob directly controls the dSTLB MPKI, which the
     * paper measures at ~58% of all STLB misses. */
    double dataColdProb = 0.005;
    /** Fraction of data accesses that stream sequentially through
     * the cold region (scan/GC-like behaviour). */
    double dataStreamFraction = 0.16;
    /**
     * Map the data regions with 2MB transparent huge pages (the
     * paper's Figure 2 methodology: THP for data while code stays on
     * 4KB pages). Collapses the dSTLB footprint and shifts the STLB
     * contention the paper discusses in Section 5.
     */
    bool dataHugePages = false;

    // --- phase behaviour ---
    /** Instructions between phase changes; 0 disables phases. */
    std::uint64_t phaseInterval = 3'000'000;
    /** Fraction of request paths regenerated at a phase change. */
    double phaseShuffleFraction = 0.10;

    /** The fields, with their cache-key names (common/fields.hh). */
    template <RecordOf<ServerWorkloadParams> Self, class V>
    friend constexpr void visitFields(Self &w, V &&v)
    {
        v("name", w.name);
        v("seed", w.seed);
        v("codePages", w.codePages);
        v("codeSegments", w.codeSegments);
        v("segmentGapPages", w.segmentGapPages);
        v("hotCodePages", w.hotCodePages);
        v("zipfTheta", w.zipfTheta);
        v("hotShare", w.hotShare);
        v("warmCodePages", w.warmCodePages);
        v("warmShare", w.warmShare);
        v("numRequestTypes", w.numRequestTypes);
        v("typeZipfTheta", w.typeZipfTheta);
        v("meanPathLength", w.meanPathLength);
        v("meanRunLength", w.meanRunLength);
        v("pNearSuccessor", w.pNearSuccessor);
        v("pDeviate", w.pDeviate);
        v("dataAccessProb", w.dataAccessProb);
        v("dataHotPages", w.dataHotPages);
        v("dataHotZipf", w.dataHotZipf);
        v("dataColdPages", w.dataColdPages);
        v("dataColdProb", w.dataColdProb);
        v("dataStreamFraction", w.dataStreamFraction);
        v("dataHugePages", w.dataHugePages);
        v("phaseInterval", w.phaseInterval);
        v("phaseShuffleFraction", w.phaseShuffleFraction);
    }
};
static_assert(visitsEveryField<ServerWorkloadParams>());

/** The generator. */
class ServerWorkload : public TraceSource
{
  public:
    explicit ServerWorkload(const ServerWorkloadParams &params);

    TraceRecord next() override;
    void nextBlock(TraceRecord *out, unsigned n) override;

    const std::string &name() const override { return params_.name; }

    std::vector<std::pair<Vpn, std::uint64_t>>
    mappedRegions() const override;

    std::vector<std::pair<Vpn, std::uint64_t>>
    largeMappedRegions() const override;

    const ServerWorkloadParams &params() const { return params_; }

    /** Number of distinct pages following page @p index across all
     * request paths (tests: Figure 7's fan-out property). */
    std::uint32_t successorCount(std::uint32_t index) const;

    /** VPN assigned to code page @p index (tests). */
    Vpn pageVpn(std::uint32_t index) const
    {
        return pageVpn_[index];
    }

    std::uint64_t phaseChanges() const { return phaseChanges_; }

    /** Popularity tier of a code VPN: 0 hot, 1 warm, 2 cold; -1 if
     * the VPN is not a code page (tests / analysis). */
    int tierOfVpn(Vpn vpn) const;

    /**
     * Serialize the generator's position: RNG, the request paths
     * (phase changes regenerate them at runtime) and the run/data
     * state. The page layout is a pure function of the parameters and
     * is rebuilt by the constructor, not saved.
     */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);
    void layoutPages();
    std::vector<std::uint32_t> buildPath(std::uint32_t type);
    void buildAllPaths();
    void phaseChange();
    std::uint32_t samplePopularPage();
    void startRequest();
    Addr sampleDataAddr();

    ServerWorkloadParams params_;
    Rng rng_;
    ZipfSampler hotZipf_;
    ZipfSampler typeZipf_;
    ZipfSampler dataZipf_;
    ZipfSampler lineZipf_;

    /** VPN of each code page. */
    std::vector<Vpn> pageVpn_;
    /** Tier permutation: rank -> page index. */
    std::vector<std::uint32_t> rankToPage_;
    /** Request paths (sequences of page indices). */
    std::vector<std::vector<std::uint32_t>> paths_;

    // --- run state ---
    std::uint32_t currentType_ = 0;
    std::size_t pathPos_ = 0;
    std::uint32_t currentPage_ = 0;
    Addr currentOffset_ = 0;
    std::uint64_t runRemaining_ = 0;
    std::uint64_t instrCount_ = 0;
    std::uint64_t nextPhaseAt_ = 0;
    std::uint64_t phaseChanges_ = 0;
    bool deviating_ = false;

    // --- data state ---
    Vpn dataHotBase_;
    Vpn dataColdBase_;
    std::uint64_t streamPos_ = 0;
};

} // namespace morrigan

#endif // MORRIGAN_WORKLOAD_SERVER_WORKLOAD_HH
