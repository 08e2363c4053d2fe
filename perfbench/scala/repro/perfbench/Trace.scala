package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.domtree.DominatorTree
import repro.graph.{ProbGraph, SeedReduction}
import repro.imin.Blocking
import repro.sampling.{DeltaEstimator, GraphSampler}
import repro.spread.MonteCarloSpread
import repro.util.Rng
import scala.collection.mutable

/** JVM management beans read by the benchmark. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated by all threads since JVM start, dead threads included. */
  def allocatedBytes(): Long = threads.getTotalThreadAllocatedBytes

  def threadAllocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** CPU time of every live Java thread, by thread id. JIT compiler and GC
    * threads are not Java threads and are not included.
    */
  def threadCpuNanos(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadCpuTime(ids)).filter(_._2 >= 0).toMap
  }

  /** (collection time in ms, collection count) summed over all collectors. */
  def gc(): (Long, Long) = {
    var ms, count = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach { b =>
      ms += math.max(0L, b.getCollectionTime); count += math.max(0L, b.getCollectionCount)
    }
    (ms, count)
  }
}

/** The host's share of CPU time stolen by the hypervisor, from /proc/stat,
  * for reading a run's noise on a shared machine. NaN where unavailable.
  */
object Host {
  def cpuTicks(): (Long, Long) =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      val f = try src.getLines().next().trim.split("\\s+").drop(1).map(_.toLong) finally src.close()
      (if (f.length > 7) f(7) else 0L, f.take(8).sum)
    } catch { case _: Exception => (0L, 0L) }

  def stealShare(from: (Long, Long), to: (Long, Long)): Double =
    if (to._2 > from._2) (to._1 - from._1).toDouble / (to._2 - from._2) else Double.NaN
}

/** Nearest-rank percentiles. */
object Stats {
  def percentile(xs: collection.Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.size).toInt - 1))
  }
  def median(xs: collection.Seq[Double]): Double = percentile(xs, 0.5)
  def mean(xs: collection.Seq[Double]): Double = xs.sum / xs.size
}

/** Counts Spark's work over a traced pass: jobs and their wall time, tasks
  * and their busy and deserialization time, result bytes, and the bytes of
  * every broadcast piece the driver stores (what a broadcast ships).
  */
final class SparkCounters extends SparkListener {
  private val jobStart = mutable.Map.empty[Int, Long]
  private val stageJob = mutable.Map.empty[Int, Int]
  private val longestTaskMs = mutable.Map.empty[Int, Long]
  val jobWallMs = mutable.ArrayBuffer.empty[Double]
  var waitMs, tasks, failedTasks, runMs, deserMs, resultBytes, broadcastBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(stageJob(_) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    if (!e.taskInfo.successful) failedTasks += 1
    val m = e.taskMetrics
    if (m != null) { runMs += m.executorRunTime; deserMs += m.executorDeserializeTime; resultBytes += m.resultSize }
    stageJob.get(e.stageId).foreach { j =>
      longestTaskMs(j) = math.max(longestTaskMs.getOrElse(j, 0L), e.taskInfo.duration)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { start =>
      val wall = e.time - start
      jobWallMs += wall.toDouble
      waitMs += wall - longestTaskMs.getOrElse(e.jobId, 0L)
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    if (info.blockId.isBroadcast && info.blockId.name.contains("_piece"))
      broadcastBytes += info.memSize + info.diskSize
  }
}

/** The traced pass and the per-layer probes. Probes call the layers' public
  * functions on the workload's own inputs, from outside the program.
  */
object Trace {

  final case class Traced(pass: Pass, counters: SparkCounters, gcMs: Long, gcCount: Long)

  /** A pipeline pass with the Spark listener attached and GC beans read. */
  def tracedPass(spark: SparkSession, w: Workload, in: Inputs, ops: Ops): Traced = {
    val sc = spark.sparkContext
    val counters = new SparkCounters
    PerfbenchBus.drain(sc)
    sc.addSparkListener(counters)
    val (gcMs0, gcN0) = Jvm.gc()
    try {
      val p = Pipeline.run(spark, w, in, ops)
      val (gcMs1, gcN1) = Jvm.gc()
      PerfbenchBus.drain(sc)
      Traced(p, counters, gcMs1 - gcMs0, gcN1 - gcN0)
    } finally sc.removeSparkListener(counters)
  }

  /** CSR bytes of a graph: offsets, targets and probabilities. */
  def csrBytes(g: ProbGraph): Long = 4L * g.offsets.length + 4L * g.targets.length + 8L * g.probs.length

  private def timedNs[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime(); val r = body; (r, System.nanoTime() - t0)
  }

  /** Layer probes on the workload's first AG round input and on AG's final
    * blocker set. Returns per-layer metrics (name -> (value, unit)).
    */
  def probes(spark: SparkSession, w: Workload, in: Inputs, agBlockers: Seq[Int], ops: Ops)
      : Seq[(String, (Double, String))] = {
    val red = SeedReduction.reduce(in.g, in.seeds)
    val rg = red.graph
    val root = red.superSeed

    // graph: the per-round rebuild on every AG round's mask (reduced ids
    // equal original ids), repeated to at least 10 samples.
    val masks = (0 until agBlockers.size.max(1)).map(i => Blocking.maskOf(rg.n, agBlockers.take(i)))
    val rebuildMs = mutable.ArrayBuffer.empty[Double]
    while (rebuildMs.size < 10) masks.foreach(m => rebuildMs += timedNs(rg.blockVertices(m))._2 / 1e6)

    // The round-1 input of AG, exactly as AdvancedGreedy builds it.
    val current = rg.blockVertices(masks.head)
    val roundSeed = Rng.splitmix64(in.agSeed ^ 1L)
    val worlds = (0L until w.theta).map(Rng.sampleSeed(roundSeed, _))

    // sampling: hashing cost per edge, and predicate calls per world.
    val hashNs = worlds.take(20).map(s => timedNs(GraphSampler.edgeMask(current, s))._2.toDouble / current.m)
    var keepCalls, distinctEdges = 0L
    val seen = new java.util.BitSet(current.m)
    for (s <- worlds) {
      val live = GraphSampler.liveEdge(current, s)
      seen.clear()
      DominatorTree.compute(current, root, { e => keepCalls += 1; seen.set(e); live(e) })
      distinctEdges += seen.cardinality
    }

    // domtree: one world's tree plus its subtree sizes, timed and weighed.
    val sampleUs, sampleKb, reached = mutable.ArrayBuffer.empty[Double]
    for (s <- worlds) {
      val a0 = Jvm.threadAllocatedBytes()
      val (dt, ns) = timedNs { val dt = DominatorTree.compute(current, root, GraphSampler.liveEdge(current, s)); dt.subtreeSizes; dt }
      sampleKb += (Jvm.threadAllocatedBytes() - a0) / 1024.0
      sampleUs += ns / 1e3
      reached += dt.count
    }

    // spread: one simulated world under AG's final blockers.
    val agMask = Blocking.maskOf(in.g.n, agBlockers)
    val simUs, simKb = mutable.ArrayBuffer.empty[Double]
    for (i <- 0L until math.min(w.rEval, 200).toLong) {
      val a0 = Jvm.threadAllocatedBytes()
      val (_, ns) = timedNs(GraphSampler.reachCount(in.g, in.roots, Rng.sampleSeed(in.evalSeed, i), agMask))
      simKb += (Jvm.threadAllocatedBytes() - a0) / 1024.0
      simUs += ns / 1e3
    }

    // Distributed vs local on the same input: one AG round, one evaluation.
    val (dist, roundNs) = timedNs(ops.call(DeltaEstimator.estimate(spark, current, root, w.theta, roundSeed)))
    val (local, roundLocalNs) = timedNs(ops.call(DeltaEstimator.estimateLocal(current, root, w.theta, roundSeed)))
    ops.check(dist.sameElements(local), "distributed and local round estimates differ")
    val (mcs, mcsNs) = timedNs(ops.call(MonteCarloSpread.spread(spark, in.g, in.roots, w.rEval, in.evalSeed, agMask)))
    val (mcsLocal, mcsLocalNs) = timedNs(ops.call(MonteCarloSpread.spreadLocal(in.g, in.roots, w.rEval, in.evalSeed, agMask)))
    ops.check(mcs == mcsLocal, s"distributed MCS $mcs differs from local $mcsLocal")

    Seq(
      "graph.rebuild_ms_p50" -> (Stats.median(rebuildMs), "ms"),
      "graph.csr_mb" -> (csrBytes(rg) / 1e6, "MB"),
      "sampling.hash_ns" -> (Stats.median(hashNs), "ns"),
      "sampling.keep_calls_per_sample" -> (keepCalls.toDouble / w.theta, "count"),
      "sampling.repeat_ratio" -> (keepCalls.toDouble / math.max(1L, distinctEdges), "ratio"),
      "sampling.round_s" -> (roundNs / 1e9, "s"),
      "sampling.round_local_s" -> (roundLocalNs / 1e9, "s"),
      "domtree.sample_us_p50" -> (Stats.median(sampleUs), "us"),
      "domtree.sample_us_p90" -> (Stats.percentile(sampleUs, 0.9), "us"),
      "domtree.reached_mean" -> (Stats.mean(reached), "vertices"),
      "domtree.reached_max" -> (reached.max, "vertices"),
      "domtree.reach_frac" -> (Stats.mean(reached) / rg.n, "ratio"),
      "domtree.alloc_kb_per_sample" -> (Stats.median(sampleKb), "KB"),
      "spread.sim_us_p50" -> (Stats.median(simUs), "us"),
      "spread.sim_us_p90" -> (Stats.percentile(simUs, 0.9), "us"),
      "spread.alloc_kb_per_sim" -> (Stats.median(simKb), "KB"),
      "spread.mcs_s" -> (mcsNs / 1e9, "s"),
      "spread.mcs_local_s" -> (mcsLocalNs / 1e9, "s"))
  }
}
