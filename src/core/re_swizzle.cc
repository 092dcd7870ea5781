/**
 * @file
 * Swizzle reverser implementation.
 */

#include "core/re_swizzle.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/log.h"

namespace dramscope {
namespace core {

namespace {

/** Union-find over host-bit node ids. */
class UnionFind
{
  public:
    int
    find(int x)
    {
        auto it = parent_.find(x);
        if (it == parent_.end()) {
            parent_[x] = x;
            return x;
        }
        int root = x;
        while (parent_[root] != root)
            root = parent_[root];
        while (parent_[x] != root) {
            const int next = parent_[x];
            parent_[x] = root;
            x = next;
        }
        return root;
    }

    void
    unite(int a, int b)
    {
        parent_[find(a)] = find(b);
    }

  private:
    std::map<int, int> parent_;
};

} // namespace

SwizzleReverser::SwizzleReverser(bender::Host &host, SwizzleOptions opts)
    : host_(host), opts_(opts)
{
    const auto &cfg = host_.config();
    columns_ = cfg.columnsPerRow();
    rd_bits_ = cfg.rdDataBits;
    probe_col_ = opts_.probeColumn == UINT32_MAX ? columns_ / 2
                                                 : opts_.probeColumn;
    fatalIf(probe_col_ == 0 || probe_col_ + 1 >= columns_,
            "SwizzleReverser: probe column needs both neighbours");
    fatalIf(opts_.subarrayBoundary == 0,
            "SwizzleReverser: subarrayBoundary required (run the "
            "SubarrayMapper first)");
}

std::vector<uint32_t>
SwizzleReverser::influenceRun(std::optional<uint32_t> candidate)
{
    const auto &cfg = host_.config();
    const dram::BankId b = bender::Host::kProbeBank;
    const uint32_t row_bits = columns_ * rd_bits_;
    std::vector<uint32_t> flips(row_bits, 0);

    BitVec victim_bits(row_bits, false);
    if (candidate)
        victim_bits.set(*candidate, true);

    // Each group is self-contained: rewrite, hammer both aggressors
    // within a refresh window, read.  Everything — including the
    // handful of retention flips over the ~120ms a group takes — is
    // bit-identical across runs, so the candidate-minus-baseline
    // difference isolates the horizontal influence exactly.
    for (uint32_t g = 0; g < opts_.victimGroups; ++g) {
        // Physically consecutive rows, addressed through the
        // discovered internal remap.
        const auto logical = [&](dram::RowAddr phys) {
            return dram::remapRow(opts_.rowRemap, phys);
        };
        const dram::RowAddr low_aggr = logical(opts_.baseRow + 4 * g);
        const dram::RowAddr victim = logical(opts_.baseRow + 4 * g + 1);
        const dram::RowAddr up_aggr = logical(opts_.baseRow + 4 * g + 2);
        fatalIf(opts_.baseRow + 4 * g + 2 >= cfg.rowsPerBank,
                "influenceRun: probe region exceeds the bank");

        host_.writeRowPattern(b, low_aggr, ~0ULL);
        host_.writeRowPattern(b, up_aggr, ~0ULL);
        host_.writeRowBits(b, victim, victim_bits);
        host_.hammer(b, low_aggr, opts_.hammerCount);
        host_.hammer(b, up_aggr, opts_.hammerCount);

        const BitVec read = host_.readRowBits(b, victim);
        for (uint32_t i = 0; i < row_bits; ++i) {
            if (read.get(i) != victim_bits.get(i))
                ++flips[i];
        }
    }
    return flips;
}

void
SwizzleReverser::classifyParity(SwizzleDiscovery &d)
{
    const dram::BankId b = bender::Host::kProbeBank;
    // Physical rows framing the first subarray boundary, addressed
    // through the discovered remap.
    const dram::RowAddr src =
        dram::remapRow(opts_.rowRemap, opts_.subarrayBoundary);
    const dram::RowAddr dst =
        dram::remapRow(opts_.rowRemap, opts_.subarrayBoundary - 1);

    // Two-trial differential: destination bits that depend on the
    // source are the ones served by the shared stripe — the odd
    // bitlines of the destination (open bitline structure).
    auto trial = [&](uint64_t src_pattern) {
        host_.writeRowPattern(b, dst, 0);
        host_.writeRowPattern(b, src, src_pattern);
        host_.rowCopy(b, src, dst);
        return host_.readRowBits(b, dst);
    };
    const BitVec with_ones = trial(~0ULL);
    const BitVec with_zeros = trial(0);

    d.blParity.assign(rd_bits_, 0);
    d.periodic = true;
    for (uint32_t i = 0; i < rd_bits_; ++i) {
        const bool odd =
            with_ones.get(size_t(probe_col_) * rd_bits_ + i) !=
            with_zeros.get(size_t(probe_col_) * rd_bits_ + i);
        d.blParity[i] = odd ? 1 : 0;
        // The parity of an RD_data bit must not depend on the column;
        // verify across the whole row (periodicity check).
        for (uint32_t c = 0; c < columns_; ++c) {
            const bool odd_c = with_ones.get(size_t(c) * rd_bits_ + i) !=
                               with_zeros.get(size_t(c) * rd_bits_ + i);
            if (odd_c != odd) {
                d.periodic = false;
                break;
            }
        }
    }
}

void
SwizzleReverser::reconstruct(SwizzleDiscovery &d)
{
    const uint32_t w = rd_bits_;
    auto parity_of = [&](uint32_t host_bit) {
        return d.blParity[host_bit % w];
    };

    // Components of the influence graph = MATs.
    UnionFind uf;
    std::set<uint32_t> nodes;
    for (const auto &[j, i] : d.edges) {
        uf.unite(int(j), int(i));
        nodes.insert(j);
        nodes.insert(i);
    }

    // Canonical MAT ids from the probe column's RD bits.
    std::map<int, int> root_to_mat;
    d.matOfRdBit.assign(w, -1);
    for (uint32_t i = 0; i < w; ++i) {
        const uint32_t host = probe_col_ * w + i;
        if (!nodes.count(host))
            continue;
        const int root = uf.find(int(host));
        auto [it, inserted] =
            root_to_mat.emplace(root, int(root_to_mat.size()));
        d.matOfRdBit[i] = it->second;
        (void)inserted;
    }
    d.matsPerRow = uint32_t(root_to_mat.size());
    if (d.matsPerRow == 0) {
        warn("SwizzleReverser: no influence edges found");
        return;
    }
    d.matWidth = columns_ * w / d.matsPerRow;

    // Residue structure: bits i and j share a MAT iff i == j modulo
    // the MAT count (every tested chip behaves this way).
    d.residueStructured = true;
    for (uint32_t i = 0; i < w; ++i) {
        if (d.matOfRdBit[i] < 0 ||
            d.matOfRdBit[i] != d.matOfRdBit[i % d.matsPerRow]) {
            d.residueStructured = false;
            break;
        }
    }

    // Chain every component into physical order using distance-one
    // edges (opposite parity); distance-two edges bridge a missed
    // link.  Then orient so the probe column's sub-chain starts at an
    // even bitline (group offsets are even).
    const uint32_t group_bits = w / d.matsPerRow;
    std::vector<uint32_t> perm(group_bits, UINT32_MAX);
    bool perm_ok = d.residueStructured;

    std::map<int, std::vector<uint32_t>> comp_nodes;
    for (uint32_t n : nodes)
        comp_nodes[uf.find(int(n))].push_back(n);

    std::map<uint32_t, std::set<uint32_t>> adj1, adj2;
    for (const auto &[j, i] : d.edges) {
        if (parity_of(j) != parity_of(i)) {
            adj1[j].insert(i);
            adj1[i].insert(j);
        } else {
            adj2[j].insert(i);
            adj2[i].insert(j);
        }
    }

    for (auto &[root, members] : comp_nodes) {
        (void)root;
        // Walk the d1 path from an endpoint, bridging gaps with d2.
        // Cells just outside the probe window are reachable through a
        // single edge only, so the walk may need to extend from both
        // ends: walk once, then reverse and continue.
        std::sort(members.begin(), members.end());
        uint32_t start = members.front();
        for (uint32_t m : members) {
            if (adj1[m].size() == 1) {
                start = m;
                break;
            }
        }
        std::vector<uint32_t> chain = {start};
        std::set<uint32_t> visited = {start};
        auto extend = [&]() {
            while (chain.size() < members.size()) {
                const uint32_t last = chain.back();
                uint32_t next = UINT32_MAX;
                for (uint32_t cand : adj1[last]) {
                    if (!visited.count(cand)) {
                        next = cand;
                        break;
                    }
                }
                if (next == UINT32_MAX && chain.size() >= 2) {
                    // Bridge: a missing d1 edge leaves the successor
                    // reachable from the second-to-last node at d2.
                    const uint32_t prev = chain[chain.size() - 2];
                    for (uint32_t cand : adj2[prev]) {
                        if (!visited.count(cand) &&
                            parity_of(cand) != parity_of(last)) {
                            next = cand;
                            break;
                        }
                    }
                }
                if (next == UINT32_MAX)
                    return;
                chain.push_back(next);
                visited.insert(next);
            }
        };
        extend();
        if (chain.size() < members.size()) {
            std::reverse(chain.begin(), chain.end());
            extend();
        }
        if (chain.size() != members.size()) {
            warn("SwizzleReverser: incomplete chain in one MAT");
            perm_ok = false;
            continue;
        }

        // Probe-column sub-chain (must be contiguous in the chain).
        std::vector<uint32_t> sub;
        for (uint32_t n : chain) {
            if (n / w == probe_col_)
                sub.push_back(n);
        }
        if (sub.size() != group_bits) {
            perm_ok = false;
            continue;
        }
        if (parity_of(sub.front()) != 0)
            std::reverse(sub.begin(), sub.end());
        if (parity_of(sub.front()) != 0) {
            perm_ok = false;
            continue;
        }
        if (d.residueStructured) {
            for (uint32_t slot = 0; slot < group_bits; ++slot) {
                const uint32_t rd_bit = sub[slot] % w;
                const uint32_t intra = rd_bit / d.matsPerRow;
                if (perm[intra] == UINT32_MAX) {
                    perm[intra] = slot;
                } else if (perm[intra] != slot) {
                    perm_ok = false;  // MATs disagree: not periodic.
                }
            }
        }
    }

    if (perm_ok &&
        std::none_of(perm.begin(), perm.end(),
                     [](uint32_t v) { return v == UINT32_MAX; })) {
        d.recoveredPerm = perm;
        // Full reconstruction: mat = rd bit modulo MAT count, slot =
        // recovered permutation of the intra index.
        std::vector<uint32_t> table(size_t(columns_) * w);
        for (uint32_t c = 0; c < columns_; ++c) {
            for (uint32_t i = 0; i < w; ++i) {
                const uint32_t mat = i % d.matsPerRow;
                const uint32_t intra = i / d.matsPerRow;
                table[size_t(c) * w + i] = mat * d.matWidth +
                                           c * group_bits + perm[intra];
            }
        }
        d.physMap = PhysMap::fromTable(std::move(table));
    }
}

SwizzleDiscovery
SwizzleReverser::discover()
{
    SwizzleDiscovery d;
    d.rdDataBits = rd_bits_;

    classifyParity(d);

    const std::vector<uint32_t> baseline = influenceRun(std::nullopt);

    // Differential sweep: every bit of the probe column and its two
    // neighbour columns is a candidate influencer.
    for (uint32_t c = probe_col_ - 1; c <= probe_col_ + 1; ++c) {
        for (uint32_t i = 0; i < rd_bits_; ++i) {
            const uint32_t cand = c * rd_bits_ + i;
            const std::vector<uint32_t> flips = influenceRun(cand);
            for (uint32_t t = 0; t < flips.size(); ++t) {
                if (t == cand)
                    continue;
                // Non-influencers give exactly zero in a
                // differential measurement: any flip is influence.
                if (flips[t] > baseline[t]) {
                    d.edges.emplace_back(cand, t);
                }
            }
        }
    }

    reconstruct(d);
    return d;
}

} // namespace core
} // namespace dramscope
