package repro.imin

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.exp.Datasets
import repro.graph.ProbGraph
import repro.sampling.DeltaEstimator
import repro.spread.MonteCarloSpread
import repro.util.Rng
import scala.collection.mutable.ArrayBuffer

/** The hand-written selection loops that `Blocking.greedy` replaced, kept as
  * the oracle the shared round must reproduce bit for bit: AG's rounds,
  * GR's two phases and BG's rounds, each with its own argmax, stop rule and
  * exhaustion flag, copied verbatim with the argmax they called. The only
  * changes: BG takes its cluster decision as a function instead of a
  * `SparkSession`, and GR's replacement keeps `u` when nothing gains (marked).
  */
object HandLoops {

  def argmaxDelta(delta: Array[Double], allowed: Int => Boolean): Int = {
    var best = -1
    var v = 0
    while (v < delta.length) {
      if (allowed(v) && (best == -1 || delta(v) > delta(best))) best = v
      v += 1
    }
    best
  }

  def ag(
      cluster: Option[SparkSession],
      g: ProbGraph,
      seeds: Set[Int],
      budgets: Seq[Int],
      theta: Int,
      masterSeed: Long): Map[Int, Seq[Int]] = {
    val b = budgets.max
    val roots = Blocking.rootsOf(g, seeds)
    val isSeed = Blocking.maskOf(g.n, roots)
    val blocked = new Array[Boolean](g.n)
    val order = ArrayBuffer.empty[Int]

    var i = 0
    var exhausted = false
    while (i < b && !exhausted) {
      val roundSeed = Rng.splitmix64(masterSeed ^ (i + 1).toLong)
      val delta = DeltaEstimator.estimate(cluster, g, roots, blocked, theta, roundSeed)
      val x = argmaxDelta(delta, v => !blocked(v) && !isSeed(v))
      if (x < 0 || delta(x) <= 0.0) exhausted = true // nothing left to gain
      else { blocked(x) = true; order += x }
      i += 1
    }
    budgets.map(k => k -> order.take(k).toSeq).toMap
  }

  def gr(
      cluster: Option[SparkSession],
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      theta: Int,
      masterSeed: Long,
      replace: Boolean): Seq[Int] = {
    require(b >= 1, "budget must be positive")
    val roots = Blocking.rootsOf(g, seeds)
    val isSeed = Blocking.maskOf(g.n, roots)

    def deltasOf(blocked: Array[Boolean], roundSeed: Long): Array[Double] =
      DeltaEstimator.estimate(cluster, g, roots, blocked, theta, roundSeed)

    val cb = GreedyReplace.seedOutNeighbors(g, seeds)
    val inCb = Blocking.maskOf(g.n, cb)
    val blocked = new Array[Boolean](g.n)
    val order = ArrayBuffer.empty[Int]

    // Phase 1 (Lines 3-10): min(d_out, b) greedy rounds restricted to CB.
    val rounds = math.min(cb.size, b)
    var i = 0
    while (i < rounds) {
      val delta = deltasOf(blocked, Rng.splitmix64(masterSeed ^ (i + 1).toLong))
      val x = argmaxDelta(delta, v => inCb(v) && !blocked(v))
      // x >= 0 because |CB| >= rounds; zero-delta out-neighbors are still
      // taken, mirroring "first select b out-neighbors". A taken x stays in
      // CB but is blocked.
      blocked(x) = true
      order += x
      i += 1
    }

    if (replace) {
      // Phase 2 (Lines 11-20): reverse-order replacement with early exit.
      var j = order.length - 1
      var break = false
      while (j >= 0 && !break) {
        val u = order(j)
        blocked(u) = false
        order.remove(j)
        val delta = deltasOf(blocked, Rng.splitmix64(masterSeed ^ 0x5deece66dL ^ (j + 1).toLong))
        val x = argmaxDelta(delta, v => !blocked(v) && !isSeed(v))
        val pick = if (x >= 0 && delta(x) > 0.0) x else u // changed: was `if (x >= 0) x else u`
        blocked(pick) = true
        order += pick
        if (pick == u) break = true // Lines 18-20
        j -= 1
      }
    }
    order.toSeq
  }

  def bg(
      cluster0: Double => Option[SparkSession],
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      r: Int,
      masterSeed: Long): Seq[Int] = {
    require(b >= 1 && r >= 1, "b and r must be positive")
    val roots = Blocking.rootsOf(g, seeds)
    val isSeed = Blocking.maskOf(g.n, roots)
    val blocked = new Array[Boolean](g.n)
    val order = ArrayBuffer.empty[Int]

    val support = Blocking.support(g, roots)

    def candidatesLeft(): Array[Int] = {
      val left = Array.newBuilder[Int]
      var v = 0
      while (v < g.n) {
        if (support(v) && !blocked(v) && !isSeed(v)) left += v
        v += 1
      }
      left.result()
    }
    var candidates = candidatesLeft()
    // Later rounds sweep fewer candidates than the first.
    val cluster = cluster0(candidates.length.toDouble * r)

    var i = 0
    var exhausted = false
    while (i < b && !exhausted) {
      val roundSeed = Rng.splitmix64(masterSeed ^ (i + 1).toLong)
      if (candidates.isEmpty) exhausted = true
      else {
        val (base, sums) = MonteCarloSpread.sums(cluster, g, roots, blocked, candidates, 1, r, roundSeed)
        // Max decrease == min spread; candidates ascend, so the first
        // minimum breaks ties by smallest id.
        var best = 0
        var k = 1
        while (k < candidates.length) {
          if (sums(k) < sums(best)) best = k
          k += 1
        }
        if (base - sums(best) <= 0L) exhausted = true
        else {
          blocked(candidates(best)) = true
          order += candidates(best)
          candidates = candidatesLeft()
        }
      }
      i += 1
    }
    order.toSeq
  }
}

class GreedyOracleSpec extends SparkSpec {

  /** What the oracle and the shared round disagree on for one input, run on
    * the driver and over Spark: AG's checkpoint map, OutNeighbors, GR and BG
    * (with r = θ). Also whether AG or BG stopped before the budget.
    */
  private def compare(g: ProbGraph, seeds: Set[Int], b: Int, theta: Int, masterSeed: Long, budgets: Seq[Int])
      : (Seq[String], Boolean) = {
    val roots = Blocking.rootsOf(g, seeds)
    val ag = HandLoops.ag(None, g, seeds, budgets, theta, masterSeed)
    val on = HandLoops.gr(None, g, seeds, b, theta, masterSeed, replace = false)
    val gr = HandLoops.gr(None, g, seeds, b, theta, masterSeed, replace = true)
    val bg = HandLoops.bg(_ => None, g, seeds, b, theta, masterSeed)
    val diffs = for {
      cluster <- Seq(None, Some(spark))
      (name, want, got) <- Seq(
        ("AG", ag, AdvancedGreedy.select(cluster, g, seeds, budgets, theta, masterSeed)),
        ("OutNeighbors", on, GreedyReplace.outNeighbors(cluster, g, roots, b, theta, masterSeed).toSeq),
        ("GR", gr, GreedyReplace.select(cluster, g, seeds, b, theta, masterSeed)),
        ("BG", bg, BaselineGreedy.select(g, seeds, b, theta, masterSeed)(_ => cluster)))
      if want != got
    } yield s"$name on ${cluster.fold("driver")(_ => "Spark")}: want $want, got $got"
    (diffs, ag(budgets.max).size < budgets.max || bg.size < b)
  }

  test("AG, OutNeighbors, GR and BG equal the hand-written loops on random multi-seed graphs") {
    val rnd = new scala.util.Random(71)
    var early = 0
    for (trial <- 1 to 120) {
      val n = 4 + rnd.nextInt(12)
      val seeds = Set.fill(1 + rnd.nextInt(3))(rnd.nextInt(n))
      def p() = rnd.nextInt(3) match { case 0 => 0.0; case 1 => 1.0; case _ => rnd.nextDouble() }
      val edges = Seq.fill(rnd.nextInt(3 * n))((rnd.nextInt(n), rnd.nextInt(n), p())).filter(e => e._1 != e._2)
      val g = ProbGraph.fromEdges(n, edges)
      val (b, theta, masterSeed) = (1 + rnd.nextInt(4), 1 + rnd.nextInt(60), rnd.nextLong())
      val (diffs, stopped) = compare(g, seeds, b, theta, masterSeed, (1 to b).filter(_ => rnd.nextBoolean()) :+ b)
      assert(diffs.isEmpty, s"trial $trial: seeds=$seeds b=$b theta=$theta edges=${g.edgeTriples}\n${diffs.mkString("\n")}")
      if (stopped) early += 1
    }
    assert(early >= 10, s"only $early of 120 graphs stop before the budget")
  }

  test("AG, OutNeighbors, GR and BG equal the hand-written loops on the Wiki-Vote substitute (Table VII seeds)") {
    val spec = Datasets.byName("Wiki-Vote")
    for (model <- Seq("TR", "WC")) {
      val g = Datasets.withModel(spec.graph, model, spec.seed)
      val seeds = Datasets.randomSeeds(g, 10, 77L + spec.seed)
      val (diffs, _) = compare(g, seeds, 20, 100, 80L, Seq(5, 10, 20))
      assert(diffs.isEmpty, s"$model:\n${diffs.mkString("\n")}")
    }
  }
}
