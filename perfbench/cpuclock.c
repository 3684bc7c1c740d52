/* The benchmark's clock: CPU time of the calling thread. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_thread_cpu_s_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_thread_cpu_s(value unit)
{
  return caml_copy_double(perfbench_thread_cpu_s_unboxed(unit));
}
