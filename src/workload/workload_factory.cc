#include "workload_factory.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"
#include "common/rng.hh"

namespace morrigan
{

ServerWorkloadParams
qmmWorkloadParams(unsigned index)
{
    fatal_if(index >= numQmmWorkloads, "qmm index %u out of range",
             index);
    // Derive all knobs deterministically from the index so the suite
    // is stable across runs but diverse across workloads.
    Rng rng(0xC0FFEE00 + index, 0x51);

    ServerWorkloadParams p;
    p.name = csprintf("qmm_%02u", index);
    p.seed = 0x9000 + index * 7919;

    p.codePages = 1500 + rng.below(4500);            // 1.5k - 6k pages
    p.codeSegments = 3 + rng.below(4);               // 3 - 6 segments
    p.segmentGapPages = 1024 + rng.below(3072);
    p.hotCodePages = 140 + rng.below(100);           // 140 - 240
    p.zipfTheta = 0.20 + rng.uniform() * 0.25;
    p.warmCodePages = 450 + rng.below(350);          // 450 - 800
    p.warmShare = 0.22 + rng.uniform() * 0.08;
    p.hotShare = 1.0 - p.warmShare - (0.004 + rng.uniform() * 0.008);
    p.numRequestTypes = 36 + rng.below(28);          // 36 - 63
    p.typeZipfTheta = 0.85 + rng.uniform() * 0.25;
    p.meanPathLength = 120 + rng.below(120);         // 120 - 240
    p.meanRunLength = 70.0 + rng.uniform() * 80.0;   // 70 - 150
    p.pNearSuccessor = 0.13 + rng.uniform() * 0.10;
    p.pDeviate = 0.01 + rng.uniform() * 0.025;
    p.dataAccessProb = 0.30 + rng.uniform() * 0.10;
    p.dataHotPages = 256 + rng.below(192);           // 256 - 448
    p.dataHotZipf = 0.75 + rng.uniform() * 0.15;
    p.dataColdPages = 1u << (17 + rng.below(2));     // 128k - 256k
    p.dataColdProb = 0.003 + rng.uniform() * 0.004;
    p.dataStreamFraction = 0.12 + rng.uniform() * 0.08;
    p.phaseInterval = 2'000'000 + rng.below(3) * 1'000'000;
    p.phaseShuffleFraction = 0.05 + rng.uniform() * 0.08;
    return p;
}

ServerWorkloadParams
specWorkloadParams(unsigned index)
{
    fatal_if(index >= numSpecWorkloads, "spec index %u out of range",
             index);
    Rng rng(0x5bec0000 + index, 0x52);

    ServerWorkloadParams p;
    p.name = csprintf("spec_%02u", index);
    p.seed = 0xA000 + index * 6007;

    // SPEC CPU codes: tiny, loopy instruction footprints.
    p.codePages = 24 + rng.below(56);                // 24 - 80 pages
    p.codeSegments = 1;
    p.hotCodePages = 32;
    p.zipfTheta = 0.8;
    p.hotShare = 0.93;
    p.warmCodePages = 16;
    p.warmShare = 0.05;
    p.numRequestTypes = 6;
    p.typeZipfTheta = 0.9;
    p.meanPathLength = 40;
    p.meanRunLength = 400.0 + rng.uniform() * 600.0;
    p.pNearSuccessor = 0.6;
    p.pDeviate = 0.01;
    p.dataAccessProb = 0.38;
    p.dataHotPages = 256 + rng.below(256);
    p.dataHotZipf = 0.40 + rng.uniform() * 0.25;
    p.dataColdPages = 1u << (17 + rng.below(2));
    p.dataColdProb = 0.004 + rng.uniform() * 0.008;
    p.dataStreamFraction = 0.16 + rng.uniform() * 0.10;
    p.phaseInterval = 0;                             // steady loops
    return p;
}

const std::vector<std::string> &
javaWorkloadNames()
{
    static const std::vector<std::string> names = {
        "cassandra", "tomcat", "avrora", "tradesoap", "xalan",
        "http", "chirper",
    };
    return names;
}

ServerWorkloadParams
javaWorkloadParams(unsigned index)
{
    const auto &names = javaWorkloadNames();
    fatal_if(index >= names.size(), "java index %u out of range",
             index);
    Rng rng(0x1AFA0000 + index, 0x53);

    ServerWorkloadParams p;
    p.name = names[index];
    p.seed = 0xB000 + index * 4001;

    // JVM server applications: deep stacks, JIT-scattered code.
    p.codePages = 1200 + rng.below(3200);
    p.codeSegments = 4 + rng.below(3);
    p.hotCodePages = 150 + rng.below(100);
    p.zipfTheta = 0.25 + rng.uniform() * 0.20;
    p.warmCodePages = 450 + rng.below(450);
    p.warmShare = 0.20 + rng.uniform() * 0.10;
    p.hotShare = 1.0 - p.warmShare - (0.005 + rng.uniform() * 0.008);
    p.numRequestTypes = 32 + rng.below(24);
    p.typeZipfTheta = 0.9;
    p.meanPathLength = 120 + rng.below(100);
    p.meanRunLength = 80.0 + rng.uniform() * 100.0;
    p.pNearSuccessor = 0.18;
    p.pDeviate = 0.02;
    p.dataAccessProb = 0.33;
    p.dataHotPages = 320;
    p.dataHotZipf = 0.55;
    p.dataColdPages = 1u << 17;
    p.dataColdProb = 0.006 + rng.uniform() * 0.004;
    p.dataStreamFraction = 0.18;
    p.phaseInterval = 1'500'000;
    p.phaseShuffleFraction = 0.08;
    return p;
}

std::optional<ServerWorkloadParams>
parseWorkloadName(const std::string &name)
{
    // Suffix index; nullopt on junk or absurd values.
    auto parseIndex = [](const char *s) -> std::optional<unsigned> {
        if (*s == '\0')
            return std::nullopt;
        char *end = nullptr;
        errno = 0;
        unsigned long v = std::strtoul(s, &end, 10);
        if (*end != '\0' || errno == ERANGE || v > 1000000)
            return std::nullopt;
        return static_cast<unsigned>(v);
    };
    if (name.rfind("qmm_", 0) == 0) {
        auto idx = parseIndex(name.c_str() + 4);
        if (idx && *idx < numQmmWorkloads)
            return qmmWorkloadParams(*idx);
        return std::nullopt;
    }
    if (name.rfind("spec_", 0) == 0) {
        auto idx = parseIndex(name.c_str() + 5);
        if (idx && *idx < numSpecWorkloads)
            return specWorkloadParams(*idx);
        return std::nullopt;
    }
    if (name.rfind("java:", 0) == 0) {
        const auto &names = javaWorkloadNames();
        for (unsigned i = 0; i < names.size(); ++i)
            if (names[i] == name.substr(5))
                return javaWorkloadParams(i);
        return std::nullopt;
    }
    return std::nullopt;
}

} // namespace morrigan
