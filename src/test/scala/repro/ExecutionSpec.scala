package repro

import java.lang.management.ManagementFactory
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerBlockUpdated, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.BroadcastBlockId
import repro.exp.Datasets
import repro.graph.{ProbGraph, PropModels, SocialGraphGen}
import repro.imin.BaselineGreedy
import repro.sampling.DeltaEstimator
import repro.spread.MonteCarloSpread
import scala.collection.mutable

/** AG/GR price a round on the graph they run on, the input graph itself;
  * a job's work items are cut into contiguous slices; over Spark a graph is
  * broadcast once per context and graph object, and a job is one Spark job
  * whose fixed cost on the submitting thread stays small.
  */
class ExecutionSpec extends SparkSpec {

  /** Bytes of the broadcast pieces the driver stores, per broadcast id
    * above `floor`, as perfbench's `spark.broadcast_mb` counts them.
    */
  private class BroadcastPieces(floor: Long) extends SparkListener {
    val bytes = mutable.Map.empty[Long, Long]
    override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
      val info = e.blockUpdatedInfo
      info.blockId match {
        case BroadcastBlockId(id, field) if id > floor && field.startsWith("piece") =>
          bytes(id) = bytes.getOrElse(id, 0L) + info.memSize + info.diskSize
        case _ =>
      }
    }
  }

  /** Spark jobs started, as the driver's listener bus reports them. */
  private class JobStarts extends SparkListener {
    @volatile var count = 0
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { count += 1 }
  }

  /** Δ and MCS of `g` from the roots `0, 1` with vertex 2 blocked. */
  private def kernels(cluster: Option[SparkSession], g: ProbGraph, seed: Long): (Seq[Double], Double) = {
    val blocked = new Array[Boolean](g.n)
    blocked(2) = true
    val delta = DeltaEstimator.estimate(cluster, g, Array(0, 1), blocked, 7, seed)
    (delta.toSeq, MonteCarloSpread.spread(cluster, g, Array(0, 1), 7, seed, blocked))
  }

  test("an AG round on the Wiki-Vote substitute (theta = 100) runs on the driver") {
    val spec = Datasets.byName("Wiki-Vote")
    val g = Datasets.withModel(spec.graph, "TR", spec.seed)
    assert(Execution.cluster(spark, g, 100).isEmpty)
  }

  test("an AG round on a sparse 100k-vertex graph (theta = 100) fans out over Spark") {
    val g = PropModels.trivalency(SocialGraphGen.powerLaw(100000, 150000, directed = false, 21L), 21L)
    assert(Execution.cluster(spark, g, 100).contains(spark))
  }

  test("the decision is a threshold on traversals x (n + m)") {
    val g = ProbGraph.fromEdges(4, Seq((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5))) // n + m = 8
    val atThreshold = Execution.SparkMinWork / 8
    assert(Execution.cluster(spark, g, atThreshold).contains(spark))
    assert(Execution.cluster(spark, g, atThreshold - 1).isEmpty)
    assert(Execution.cluster(spark, g, 1).isEmpty)
  }

  test("slices cover the work items exactly once, in order, without overflow") {
    for (slices <- Seq(1, 3, 8); count <- Seq(1L, 2L, slices - 1L, 1000007L, Long.MaxValue) if count >= 1) {
      val bounds = (0 until slices).map(Execution.slice(count, slices, _))
      assert(bounds.head._1 == 0L && bounds.last._2 == count, s"count=$count slices=$slices")
      assert(bounds.zip(bounds.tail).forall { case (a, b) => a._2 == b._1 }, s"count=$count slices=$slices")
      val sizes = bounds.map { case (from, until) => until - from }
      assert(sizes.forall(k => k == count / slices || k == count / slices + 1), s"count=$count slices=$slices")
    }
  }

  test("five Spark jobs on one graph, between jobs on other graphs, store its broadcast once") {
    // A new object, so no job has broadcast it yet. Its probabilities are
    // random doubles: 8 incompressible bytes each.
    val rnd = new scala.util.Random(31L)
    val g = SocialGraphGen.powerLaw(20000, 60000, directed = true, 31L).mapProbs((_, _, _) => 0.05 * rnd.nextDouble())
    // Four small graphs in turn: with g, one more than the cache keeps, so
    // g stays cached only if the least recently used entry is evicted.
    val others = (0 until 4).map(k => PropModels.trivalency(SocialGraphGen.powerLaw(300, 1200, directed = true, k), k))
    val sc = spark.sparkContext
    // Count only broadcasts made from here on: an earlier one (a graph of
    // an earlier test) may report its pieces again while this test runs.
    val probe = sc.broadcast(0)
    val pieces = new BroadcastPieces(probe.id)
    probe.destroy()
    sc.addSparkListener(pieces)
    try {
      for (j <- 0 until 5) {
        val blocked = new Array[Boolean](g.n)
        blocked(j + 2) = true
        if (j % 2 == 0)
          DeltaEstimator.estimate(Some(spark), g, Array(0, 1), blocked, 3, j)
        else MonteCarloSpread.spread(Some(spark), g, Array(0, 1), 3, j, blocked)
        if (j < 4) kernels(Some(spark), others(j), j)
      }
      ListenerBusDrain(sc)
    } finally sc.removeSparkListener(pieces)
    // The graph's probabilities alone are 8 m incompressible bytes; a job's
    // task binary (closure, roots and an n-sized mask) and a small graph are
    // far below 4 m.
    val large = pieces.bytes.values.count(_ >= 4L * g.m)
    assert(pieces.bytes.size >= 5, s"the listener saw ${pieces.bytes.size} broadcasts")
    assert(large == 1, s"broadcast bytes by id: ${pieces.bytes.toSeq.sorted}")
  }

  test("round-robin over more graphs than the cache keeps: Spark equals the driver exactly") {
    // Ten graphs against a cache of four: every round re-broadcasts evicted ones.
    val graphs = (0 until 10).map(k => PropModels.trivalency(SocialGraphGen.powerLaw(300, 1200, directed = true, k), k))
    for (round <- 0 until 3; (g, k) <- graphs.zipWithIndex)
      assert(kernels(Some(spark), g, round) == kernels(None, g, round), s"round $round graph $k")
  }

  test("a mapProbs copy shares the CSR arrays but is broadcast with its own probabilities") {
    val g = PropModels.trivalency(SocialGraphGen.powerLaw(500, 2000, directed = true, 52L), 52L)
    val h = g.mapProbs((_, _, _) => 0.5)
    assert((h.offsets eq g.offsets) && (h.targets eq g.targets) && !(h eq g))
    val onG = kernels(Some(spark), g, 9L)
    val onH = kernels(Some(spark), h, 9L)
    assert(onG == kernels(None, g, 9L))
    assert(onH == kernels(None, h, 9L))
    assert(onH != onG, "the two graphs should spread differently")
  }

  test("jobs whose slices are all empty but one or two: Spark equals the driver, one Spark job per call") {
    val g = PropModels.trivalency(SocialGraphGen.powerLaw(300, 1200, directed = true, 61L), 61L)
    val blocked = new Array[Boolean](g.n)
    blocked(2) = true
    val candidates = (3 until 40).toArray
    val sc = spark.sparkContext
    val counts = Seq(1, sc.defaultParallelism - 1).filter(_ >= 1).distinct
    def deltaMcsSweep(cluster: Option[SparkSession], count: Int) = (
      DeltaEstimator.estimate(cluster, g, Array(0, 1), blocked, count, 5L).toSeq,
      MonteCarloSpread.spread(cluster, g, Array(0, 1), count, 5L, blocked),
      {
        val (base, sums) = BaselineGreedy.sweep(cluster, g, Array(0, 1), blocked, candidates.take(count), 50, 5L)
        (base, sums.toSeq)
      })
    val jobs = new JobStarts
    sc.addSparkListener(jobs)
    val onSpark =
      try {
        val results = counts.map(deltaMcsSweep(Some(spark), _))
        ListenerBusDrain(sc)
        results
      } finally sc.removeSparkListener(jobs)
    assert(jobs.count == 3 * counts.size, s"${jobs.count} Spark jobs for ${3 * counts.size} calls")
    for ((count, got) <- counts.zip(onSpark))
      assert(got == deltaMcsSweep(None, count), s"count = $count")
  }

  test("a Spark job allocates under 1 MB on the thread that submits it") {
    // A fan-out written as RDD lambdas makes Spark's closure cleaner parse
    // class files and serialize the closure on this thread: about 4.7 MB
    // per job on this graph.
    val g = PropModels.trivalency(SocialGraphGen.powerLaw(100000, 150000, directed = false, 21L), 21L)
    val mask = new Array[Boolean](g.n)
    mask(7) = true
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    def job(): Long = Execution.run(Some(spark), g, mask, 1000L) { case (_, mask, from, until) =>
      if (mask(7)) until - from else 0L
    }(_ + _)
    for (_ <- 0 until 10) assert(job() == 1000L)
    val bytes = (0 until 20).map { _ =>
      val before = threads.getCurrentThreadAllocatedBytes
      job()
      threads.getCurrentThreadAllocatedBytes - before
    }.sorted
    assert(bytes(10) < (1L << 20), s"bytes allocated per job, sorted: $bytes")
  }
}
