/**
 * @file
 * In-memory span recorder for the traced pass. Spans are recorded by
 * the benchmark around its own calls into the simulator (set-up,
 * runOne, each layer probe), kept in memory, and written out once at
 * exit. A null recorder makes every ScopedSpan a no-op, which is how
 * the untraced pass runs.
 */

#ifndef HOSTBENCH_SPANS_HH_
#define HOSTBENCH_SPANS_HH_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace hostbench
{

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;        //!< index of the enclosing span, or -1
        std::uint64_t run = 0;  //!< spans of one timed unit share it
    };

    int
    begin(std::string name, std::uint64_t run)
    {
        spans_.push_back({std::move(name), nowNs(), 0, open_, run});
        open_ = int(spans_.size()) - 1;
        return open_;
    }

    void
    end(int id)
    {
        spans_[id].endNs = nowNs();
        open_ = spans_[id].parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write all spans as one JSON array; false on an I/O error. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "  {\"id\": " << i << ", \"name\": \"" << s.name
                << "\", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs
                << ", \"parent\": " << s.parent << ", \"run\": " << s.run
                << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
        return bool(out);
    }

  private:
    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::vector<Span> spans_;
    int open_ = -1;
};

/** RAII span; does nothing when the recorder is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, std::string name, std::uint64_t run)
        : rec_(rec), id_(rec ? rec->begin(std::move(name), run) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int id_;
};

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH_
