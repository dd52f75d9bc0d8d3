/* C helpers the OCaml standard library does not offer. */
#include <time.h>
#include <caml/mlvalues.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

/* CLOCK_MONOTONIC in nanoseconds: the clock the OCaml runtime stamps its
   GC events with, at a resolution fine enough for sub-microsecond calls. */
value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Hand the C heap's free memory back to the operating system, so the next
   allocations fault their pages in as a fresh process's would. */
value perfbench_release_memory(value unit)
{
  (void)unit;
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return Val_unit;
}
