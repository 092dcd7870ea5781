/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Everything stochastic in the library (per-cell flip thresholds,
 * retention times, process variation) derives from either an explicit
 * Rng stream or a stateless hash of a cell coordinate.  This keeps
 * every experiment reproducible bit-for-bit from a single seed.
 */

#ifndef DRAMSCOPE_UTIL_RNG_H
#define DRAMSCOPE_UTIL_RNG_H

#include <cmath>
#include <cstdint>

namespace dramscope {

/**
 * SplitMix64 step: the canonical 64-bit finalizer used both to seed
 * xoshiro and as a stateless hash.
 *
 * @param x Input state / key.
 * @return Well-mixed 64-bit output.
 */
constexpr uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combines two 64-bit values into a new well-mixed hash. */
constexpr uint64_t
hashCombine(uint64_t a, uint64_t b)
{
    return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/**
 * xoshiro256** PRNG.  Small, fast, and high quality; state is four
 * 64-bit words seeded via splitmix64.
 */
class Rng
{
  public:
    /** Constructs a generator from a 64-bit seed. */
    explicit Rng(uint64_t seed = 0x5eedull)
    {
        for (auto &word : state_) {
            seed = splitmix64(seed);
            word = seed;
        }
    }

    /** Returns the next raw 64-bit output. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n); n must be > 0. */
    uint64_t
    below(uint64_t n)
    {
        // Lemire's nearly-divisionless bounded sampling (biased by at
        // most 2^-64, fine for simulation purposes).
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>(next()) * n) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(below(uint64_t(hi - lo + 1)));
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** Standard normal via Box-Muller (cached pair). */
    double
    gaussian()
    {
        if (has_gauss_) {
            has_gauss_ = false;
            return gauss_;
        }
        double u1 = 0.0;
        do {
            u1 = uniform();
        } while (u1 <= 0.0);
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 6.283185307179586 * u2;
        gauss_ = r * std::sin(theta);
        has_gauss_ = true;
        return r * std::cos(theta);
    }

    /** Normal with given mean and standard deviation. */
    double
    gaussian(double mean, double sigma)
    {
        return mean + sigma * gaussian();
    }

    /** Lognormal: exp(N(mu, sigma)). */
    double
    lognormal(double mu, double sigma)
    {
        return std::exp(gaussian(mu, sigma));
    }

  private:
    static constexpr uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4] = {};
    bool has_gauss_ = false;
    double gauss_ = 0.0;
};

/**
 * Stateless per-coordinate randomness: maps a (seed, key) pair to a
 * uniform double in (0, 1).  Used for per-cell static properties so
 * that no per-cell state must be stored.
 */
inline double
hashUniform(uint64_t seed, uint64_t key)
{
    const uint64_t h = hashCombine(seed, key);
    // Avoid exactly 0 so it is safe inside log().
    return ((h >> 11) + 1) * 0x1.0p-53;
}

/**
 * Stateless standard normal from a (seed, key) pair via the inverse
 * of the error function (Acklam-style rational approximation of the
 * normal quantile, accurate to ~1e-9 which is ample here).
 */
double hashGaussian(uint64_t seed, uint64_t key);

/** Stateless lognormal exp(N(mu, sigma)) from a (seed, key) pair. */
inline double
hashLognormal(uint64_t seed, uint64_t key, double mu, double sigma)
{
    return std::exp(mu + sigma * hashGaussian(seed, key));
}

} // namespace dramscope

#endif // DRAMSCOPE_UTIL_RNG_H
