package repro

import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.graph.ProbGraph
import scala.collection.mutable.ArrayBuffer

/** The one place that decides whether a job executes on the driver or fans
  * out over Spark, and the one function that fans it out.
  *
  * Every sampled-world kernel is a fold of independent work items into one
  * sum over a graph: AG/GR's rounds (`DeltaEstimator.estimate`, θ worlds),
  * MCS and BG's rounds (`MonteCarloSpread.sums`, r worlds) and Exact's
  * combination sweep (combination indices). Each writes that fold once,
  * over a contiguous slice of item ids, and [[run]] executes it on the
  * driver or over Spark. Worlds are keyed by
  * `Rng.sampleSeed`, so both give identical results; only their cost
  * differs. Every slice runs on its thread's [[Scratch]] for the graph's
  * size, reused across jobs, so no slice allocates an n-sized array. Over
  * Spark the graph is broadcast once per Spark context and graph object and
  * reused by every later job on it; a job ships only its own payload
  * (roots, blocked vertex ids, candidates) in its task, and each slice
  * returns a partial sized by what its worlds reach. A Spark job is one
  * `runJob` of a named task class, which Spark's closure cleaner skips; it
  * still pays a fixed cost for scheduling, task serialization and task
  * start, which is repaid only when the job's work is large enough to
  * split. The work of one job — one AG/GR round, one BG round, one Exact
  * search, one MCS evaluation — is known before it starts, so the
  * algorithms decide once per run from it ([[cluster]]).
  */
object Execution {

  /** Work of one job, in vertex and edge visits (sampled-world traversals ×
    * (n + m)), at or above which it fans out over Spark; below it, the job
    * runs on the driver.
    *
    * Set when a driver AG/GR round cost about 10 ns per unit of work and a
    * Spark round about 52 ms plus 5 ns per unit, so that they broke even
    * near 1.2·10⁷. Re-measured once [[run]] broadcast each graph once, by
    * three traced perfbench runs per workload (seeds 1–3, `local[2]`, 4
    * cores):
    *  - one AG round of θ = 100 worlds (`sampling.round_s` on Spark vs
    *    `sampling.round_local_s` on the driver): table7-wiki-tr, work
    *    9.4·10⁵, 0.029–0.041 s vs 0.004–0.005 s; sparse-100k-tr, work
    *    4.0·10⁷, 0.19–0.69 s vs 0.084–0.100 s. Those Spark probes run
    *    cold, on a graph no earlier job has broadcast. Timed warm by hand
    *    on the graph AG runs on (two JVMs, 40 rounds each, the median of
    *    the last 30, `local[2]`), a sparse round took 0.062–0.065 s on
    *    Spark vs 0.054–0.056 s on the driver, where it took 0.074–0.079 s
    *    vs 0.047–0.055 s while every job broadcast its graph. A round's
    *    samples cost what they reach, which n + m does not measure.
    *  - one MCS evaluation (`spread.mcs_s` vs `spread.mcs_local_s`): table7,
    *    r = 1000, work 9.4·10⁶, 0.029–0.034 s vs 0.002–0.005 s; sparse,
    *    r = 100, work 4.0·10⁷, 0.021–0.031 s vs 0.008–0.020 s.
    * Since a job became one named task (see [[SliceTask]]), its fixed cost
    * on the driver thread fell from about 7 ms of CPU to about 0.5 ms, and
    * the whole process's per-job CPU from about 20 ms to 11 ms (trivial
    * jobs, `local[2]`). The constant is unchanged, so no job moved: MCS and
    * the AG/GR rounds still run on the driver on table7 and on Spark on
    * sparse. Moving sparse's jobs onto the driver would lengthen its
    * thread's work (`driver_cpu_s`) for a wall-time gain of a few ms per
    * job; a price by what a job's worlds reach would replace the constant.
    */
  val SparkMinWork: Double = 1e7

  /** `Some(spark)` when `traversals` sampled-world traversals of `g` — the
    * work of one job — reach [[SparkMinWork]]; `None` (run on the driver)
    * below it.
    */
  def cluster(spark: SparkSession, g: ProbGraph, traversals: Double): Option[SparkSession] =
    if (traversals * (g.n.toDouble + g.m) >= SparkMinWork) Some(spark) else None

  /** Fold the work items `0 until count` over the graph `g` into one
    * result: `part(g, shared, from, until, scratch)` folds the items of one
    * contiguous slice into a partial, and `merge` combines two partials.
    * `scratch` is the running thread's [[Scratch]] for `g.n` vertices
    * (see [[Scratch.using]]): the part takes its n-sized state from it and
    * leaves it clean, and a part that throws leaves it behind.
    *
    * On the driver (`cluster = None`) the whole range is one slice. Over
    * Spark, `g` is read from one broadcast per Spark context and graph,
    * made by the first job that runs on them and reused by every later job
    * (see [[graphBroadcast]]); `shared`, the job's own payload (roots,
    * blocked vertex ids, a candidate array), rides in the task, which Spark
    * already ships once per job. The range is cut into `defaultParallelism`
    * slices (see [[slice]]), and the job is one `SparkContext.runJob` of a
    * [[SliceTask]] over them, so partials are plain JVM values (no encoder,
    * no query plan); an empty slice gives no partial. The partials are
    * merged on the driver, left to right in slice order. One call is one
    * Spark job.
    */
  def run[A, R](cluster: Option[SparkSession], g: ProbGraph, shared: A, count: Long)(
      part: (ProbGraph, A, Long, Long, Scratch) => R)(merge: (R, R) => R): R = {
    require(count >= 1, "a job needs at least one work item")
    cluster match {
      case None => Scratch.using(g.n)(part(g, shared, 0L, count, _))
      case Some(spark) =>
        val sc = spark.sparkContext
        val slices = sc.defaultParallelism
        val task = new SliceTask(graphBroadcast(sc, g), shared, count, slices, part)
        sc.runJob(sc.parallelize(0 until slices, slices), task).iterator.flatten.reduceLeft(merge)
    }
  }

  /** The task of one [[run]] job over Spark: it folds slice
    * `ctx.partitionId()` of the job's work items, or gives `None` for an
    * empty slice.
    *
    * A named class, not a lambda: Spark's closure cleaner returns at once
    * for a function that is not a closure, while for a lambda it reads and
    * parses class files and test-serializes the closure on the driver on
    * every job. Measured over 1 500 warm trivial jobs on a 10⁵-vertex
    * graph with an n-sized mask (`local[2]`, 4 cores), the lambdas cost the
    * submitting thread 7.1 ms of CPU and 4.7 MB of allocation per job
    * (the process 20 ms and 11.9 MB); this task costs it 0.45 ms and
    * 88 KB (the process 11 ms and 7.4 MB).
    */
  private final class SliceTask[A, R](
      graph: Broadcast[ProbGraph],
      shared: A,
      count: Long,
      slices: Int,
      part: (ProbGraph, A, Long, Long, Scratch) => R)
      extends ((TaskContext, Iterator[Int]) => Option[R]) with Serializable {
    def apply(ctx: TaskContext, ids: Iterator[Int]): Option[R] = {
      val (from, until) = slice(count, slices, ctx.partitionId())
      if (from == until) None
      else {
        val g = graph.value
        Some(Scratch.using(g.n)(part(g, shared, from, until, _)))
      }
    }
  }

  /** How many graph broadcasts [[graphBroadcast]] keeps. */
  private val CachedGraphs = 4

  /** (context, graph, broadcast of the graph), most recently used first. */
  private val graphs = ArrayBuffer.empty[(SparkContext, ProbGraph, Broadcast[ProbGraph])]

  /** The broadcast of `g` in `sc`: the cached one, or a new one that enters
    * the cache. Entries are keyed by the identity (`eq`) of the context and
    * the graph, which is sound because a [[ProbGraph]] is immutable; so a
    * copy such as `mapProbs`' result, which shares arrays with its source,
    * is a graph of its own. Every algorithm runs on the graph it is given,
    * so a run needs one entry; the [[CachedGraphs]] most recently used
    * entries are kept, room for a few instances used in turn. An evicted
    * entry's broadcast is destroyed (so a job still running on it from
    * another driver thread would fail; the algorithms submit their jobs
    * from one thread), and an entry whose context has stopped is dropped
    * without a call to `destroy` (its broadcast went with the context).
    */
  private def graphBroadcast(sc: SparkContext, g: ProbGraph): Broadcast[ProbGraph] = graphs.synchronized {
    graphs.filterInPlace { case (c, _, _) => !c.isStopped }
    val i = graphs.indexWhere { case (c, h, _) => (c eq sc) && (h eq g) }
    val entry = if (i >= 0) graphs.remove(i) else (sc, g, sc.broadcast(g))
    graphs.prepend(entry)
    while (graphs.length > CachedGraphs) graphs.remove(graphs.length - 1)._3.destroy()
    entry._3
  }

  /** Bounds `[from, until)` of slice `s` when `0 until count` is cut into
    * `slices` contiguous slices whose sizes differ by at most one; the
    * slices cover the range in order. Never overflows, for any `count`.
    */
  def slice(count: Long, slices: Int, s: Int): (Long, Long) = {
    val q = count / slices
    val r = count % slices
    (s * q + math.min(s.toLong, r), (s + 1) * q + math.min(s + 1L, r))
  }
}
