package repro

import java.lang.management.ManagementFactory
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerBlockUpdated, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.BroadcastBlockId
import repro.exp.Datasets
import repro.graph.{ProbGraph, PropModels, SocialGraphGen}
import repro.imin.ExactBlocker
import repro.sampling.DeltaEstimator
import repro.spread.MonteCarloSpread
import scala.collection.mutable

/** AG/GR price a round on the graph they run on, the input graph itself;
  * a job's work items are cut into contiguous slices; over Spark a graph is
  * broadcast once per context and graph object, and a job is one Spark job
  * whose fixed cost on the submitting thread stays small; every slice runs
  * on its thread's scratch, which each kernel leaves clean.
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
    val delta = DeltaEstimator.estimate(cluster, g, Array(0, 1), Array(2), 7, seed)
    (delta.toSeq, MonteCarloSpread.spread(cluster, g, Array(0, 1), 7, seed, Array(2)))
  }

  /** One job of each kernel on `g` from the roots `0, 1` with vertex 2
    * blocked: a Δ round, an MCS evaluation, a BG round and an Exact search.
    */
  private def kernelJobs(cluster: Option[SparkSession], g: ProbGraph, seed: Long): Seq[() => Any] = {
    val candidates = (3 until 40).toArray
    Seq(
      () => DeltaEstimator.estimate(cluster, g, Array(0, 1), Array(2), 9, seed).toSeq,
      () => MonteCarloSpread.spread(cluster, g, Array(0, 1), 9, seed, Array(2)),
      () => {
        val (base, sums) = MonteCarloSpread.sums(cluster, g, Array(0, 1), Array(2), candidates, 1, 9, seed)
        (base, sums.toSeq)
      },
      () => ExactBlocker.search(cluster, g, Array(0, 1), candidates.take(12), 2, 9, seed))
  }

  /** Whether every slice of a job on `g` finds its scratch clean: `dfn` −1,
    * the Δ sums 0 and the mask false everywhere.
    */
  private def scratchesClean(cluster: Option[SparkSession], g: ProbGraph): Boolean =
    Execution.run(cluster, g, (), 64L) { (_, _, _, _, s) =>
      s.ws.dfn.forall(_ == -1) && s.acc.forall(_ == 0.0) && !s.mask.exists(identity)
    }(_ && _)

  /** `body` on a new thread, whose scratches are all new. */
  private def onNewThread[A](body: => A): A = {
    var out: Option[A] = None
    val t = new Thread(() => out = Some(body))
    t.start()
    t.join()
    out.get
  }

  private lazy val sparse100k =
    PropModels.trivalency(SocialGraphGen.powerLaw(100000, 150000, directed = false, 21L), 21L)
  private lazy val small2k = PropModels.trivalency(SocialGraphGen.powerLaw(2000, 8000, directed = true, 71L), 71L)

  test("an AG round on the Wiki-Vote substitute (theta = 100) runs on the driver") {
    val spec = Datasets.byName("Wiki-Vote")
    val g = Datasets.withModel(spec.graph, "TR", spec.seed)
    assert(Execution.cluster(spark, g, 100).isEmpty)
  }

  test("an AG round on a sparse 100k-vertex graph (theta = 100) fans out over Spark") {
    assert(Execution.cluster(spark, sparse100k, 100).contains(spark))
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
        if (j % 2 == 0)
          DeltaEstimator.estimate(Some(spark), g, Array(0, 1), Array(j + 2), 3, j)
        else MonteCarloSpread.spread(Some(spark), g, Array(0, 1), 3, j, Array(j + 2))
        if (j < 4) kernels(Some(spark), others(j), j)
      }
      ListenerBusDrain(sc)
    } finally sc.removeSparkListener(pieces)
    // The graph's probabilities alone are 8 m incompressible bytes; a job's
    // task binary (closure, roots and blocked ids) and a small graph are far
    // below 4 m.
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
    val blocked = Array(2)
    val candidates = (3 until 40).toArray
    val sc = spark.sparkContext
    val counts = Seq(1, sc.defaultParallelism - 1).filter(_ >= 1).distinct
    // A BG round's job slices its r worlds, as MCS does.
    def deltaMcsSweep(cluster: Option[SparkSession], count: Int) = (
      DeltaEstimator.estimate(cluster, g, Array(0, 1), blocked, count, 5L).toSeq,
      MonteCarloSpread.spread(cluster, g, Array(0, 1), count, 5L, blocked),
      {
        val (base, sums) = MonteCarloSpread.sums(cluster, g, Array(0, 1), blocked, candidates, 1, count, 5L)
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
    val g = sparse100k
    val mask = new Array[Boolean](g.n)
    mask(7) = true
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    def job(): Long = Execution.run(Some(spark), g, mask, 1000L) { case (_, mask, from, until, _) =>
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

  test("after a job of any kernel, on the driver or over Spark, the next job returns what a fresh scratch returns") {
    val g = small2k
    val fresh = kernelJobs(None, g, 5L).map(job => onNewThread(job()))
    for (cluster <- Seq(None, Some(spark))) {
      val jobs = kernelJobs(cluster, g, 5L)
      for (k <- jobs.indices; j <- jobs.indices) {
        jobs(k)()
        assert(scratchesClean(cluster, g), s"cluster $cluster, after kernel $k")
        assert(jobs(j)() == fresh(j), s"cluster $cluster, kernel $j after kernel $k")
      }
    }
  }

  test("a part that dirties its scratch and throws leaves the next job unchanged") {
    val g = small2k
    val fresh = kernelJobs(None, g, 6L).map(job => onNewThread(job()))
    for (cluster <- Seq(None, Some(spark))) {
      intercept[Exception](Execution.run[Unit, Int](cluster, g, (), 64L) { (_, _, _, _, s) =>
        s.mask(5) = true; s.acc(7) = 3.0; s.ws.dfn(9) = 4
        throw new IllegalStateException("a part that fails half-way")
      }(_ + _))
      assert(scratchesClean(cluster, g), s"cluster $cluster")
      assert(kernelJobs(cluster, g, 6L).map(_()) == fresh, s"cluster $cluster")
    }
  }

  test("jobs alternating between a 10^5-vertex and a 2 000-vertex graph equal separate runs on each") {
    val graphs = Seq(sparse100k, small2k)
    def deltaMcs(cluster: Option[SparkSession], g: ProbGraph, seed: Long) = (
      DeltaEstimator.estimate(cluster, g, Array(0, 1), Array(2), 5, seed).toSeq,
      MonteCarloSpread.spread(cluster, g, Array(0, 1), 5, seed, Array(2)))
    val separate = graphs.map(g => onNewThread((0 until 3).map(seed => deltaMcs(None, g, seed))))
    for (cluster <- Seq(None, Some(spark)); seed <- 0 until 3; (g, k) <- graphs.zipWithIndex)
      assert(deltaMcs(cluster, g, seed) == separate(k)(seed), s"cluster $cluster, graph $k, seed $seed")
  }

  test("delta at theta = 1 over Spark (one non-empty slice) equals the driver's") {
    for (g <- Seq(sparse100k, small2k); seed <- 0L until 3L) {
      val onSpark = DeltaEstimator.estimate(Some(spark), g, Array(0, 1), Array(2), 1, seed)
      assert(onSpark.sameElements(DeltaEstimator.estimate(None, g, Array(0, 1), Array(2), 1, seed)), s"n ${g.n}")
    }
  }

  test("a warm job allocates no n-sized array beyond its result") {
    val g = sparse100k
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    def allocated(job: => Any): Long = {
      for (_ <- 0 until 5) job
      (0 until 11).map { _ =>
        val before = threads.getCurrentThreadAllocatedBytes
        job
        threads.getCurrentThreadAllocatedBytes - before
      }.sorted.apply(5)
    }
    // An MCS evaluation's result is one number; a Δ round's is n doubles.
    val mcs = allocated(MonteCarloSpread.spread(None, g, Array(0, 1), 5, 3L, Array(2)))
    val delta = allocated(DeltaEstimator.estimate(None, g, Array(0, 1), Array(2), 5, 3L))
    assert(mcs < g.n, s"an MCS job allocated $mcs bytes")
    assert(delta < 8L * g.n + g.n, s"a Δ round allocated $delta bytes")
  }

  test("a blocked set out of range or out of order is rejected before any job starts") {
    val g = small2k
    val sc = spark.sparkContext
    val jobs = new JobStarts
    sc.addSparkListener(jobs)
    try {
      for (bad <- Seq(Array(-1), Array(g.n), Array(3, 2), Array(2, 2))) {
        intercept[IllegalArgumentException](DeltaEstimator.estimate(Some(spark), g, Array(0, 1), bad, 5, 1L))
        intercept[IllegalArgumentException](MonteCarloSpread.sums(Some(spark), g, Array(0, 1), bad, Array(3), 1, 5, 1L))
      }
      val e = intercept[IllegalArgumentException](
        MonteCarloSpread.spreadWithBlockers(spark, sparse100k, Array(0, 1), Seq(5, sparse100k.n), 100, 1L))
      assert(e.getMessage.contains(s"blocker ${sparse100k.n} out of range"), e.getMessage)
      ListenerBusDrain(sc)
    } finally sc.removeSparkListener(jobs)
    assert(jobs.count == 0, s"${jobs.count} Spark jobs started")
  }
}
