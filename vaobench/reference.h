// The benchmark's reference chunk: a fixed computation, owned by the
// benchmark and never by the program under test, that the driver times
// between ticks and set-ups. Its CPU time tracks the speed the shared host
// gives the process at that moment, so dividing by it takes the host's
// speed out of the reported timings (README.md, "Timings").

#ifndef VAOBENCH_REFERENCE_H_
#define VAOBENCH_REFERENCE_H_

namespace vaobench {

/// The scale of every normalised timing: timings read as if one reference
/// chunk took this long.
inline constexpr double kReferenceChunkSeconds = 0.002;

/// CPU time of the whole process, in seconds. The measured loop and the
/// set-ups run on one thread and never block, so on a core of their own
/// this equals wall time; unlike wall time it leaves out the time the
/// process waited for a core that other processes held.
double CpuSeconds();

/// Runs the reference chunk once and returns its CPU seconds: 800
/// tridiagonal solves of 256 rows (divisions, a dependent chain and an exp
/// per row), the shape of the PDE march that dominates the program's ticks.
double TimeReferenceChunk();

}  // namespace vaobench

#endif  // VAOBENCH_REFERENCE_H_
