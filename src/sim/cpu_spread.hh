/**
 * @file
 * Starting CPUs for a batch of worker threads.
 *
 * Linux may leave a new thread on its parent's CPU until a load
 * balance; on a 4-vCPU KVM guest that took up to a second, with every
 * worker taking turns on one core.  Each worker moves itself to its
 * own allowed CPU, then drops the pin, so the scheduler stays free to
 * migrate it.  The sharded engine's threaded workers and the sweep
 * runner's workers both start this way.
 */

#ifndef VCP_SIM_CPU_SPREAD_HH
#define VCP_SIM_CPU_SPREAD_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace vcp {

/** The launching thread's allowed CPUs, read once per batch. */
class CpuSpread
{
  public:
    CpuSpread()
    {
#if defined(__linux__)
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed_))
                cpus_.push_back(c);
        auto here = std::find(cpus_.begin(), cpus_.end(), sched_getcpu());
        if (here != cpus_.end())
            first_ = static_cast<std::size_t>(here - cpus_.begin());
#endif
    }

    /** Move the calling thread, worker @p k, to the k-th allowed CPU
     *  after the launching thread's. */
    void
    place(std::size_t k) const
    {
#if defined(__linux__)
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[(first_ + k) % cpus_.size()], &one);
        if (sched_setaffinity(0, sizeof(one), &one) == 0)
            sched_setaffinity(0, sizeof(allowed_), &allowed_);
#else
        (void)k;
#endif
    }

  private:
#if defined(__linux__)
    cpu_set_t allowed_;
#endif
    std::vector<int> cpus_;
    std::size_t first_ = 0;
};

} // namespace vcp

#endif // VCP_SIM_CPU_SPREAD_HH
