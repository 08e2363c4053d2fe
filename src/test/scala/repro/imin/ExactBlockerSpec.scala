package repro.imin

import repro.SparkSpec
import repro.exp.{Datasets, Extracts}
import repro.graph.{ProbGraph, ToyGraph}
import repro.sampling.ReachOracle
import repro.spread.ExactSpread
import repro.util.Rng
import scala.util.Random

class ExactBlockerSpec extends SparkSpec {

  private val g = ToyGraph.graph
  private val seeds = Set(ToyGraph.seed)
  private def v(k: Int) = ToyGraph.v(k)

  /** The combination-major search Exact ran before its sweep: one mask and
    * one sum over the pool per combination index, in index order, each
    * world counted by the tests' own reach.
    */
  private def oracleSearch(
      g: ProbGraph,
      roots: Array[Int],
      candidates: Array[Int],
      b: Int,
      thetaEval: Int,
      masterSeed: Long): (Long, Long) = {
    var best = (Long.MaxValue, -1L)
    for (idx <- 0L until ExactBlocker.choose(candidates.length, b)) {
      val mask = Blocking.maskOf(g.n, ExactBlocker.unrank(idx, b).map(candidates(_)))
      val sum = ReachOracle.sum(g, roots, mask, masterSeed, thetaEval)
      if (sum < best._1) best = (sum, idx)
    }
    best
  }

  /** Exact's candidates: the non-root vertices of the support. */
  private def candidatesOf(g: ProbGraph, roots: Array[Int]): Array[Int] = {
    val support = Blocking.support(g, roots)
    (0 until g.n).filter(u => support(u) && !roots.contains(u)).toArray
  }

  test("choose computes binomial coefficients") {
    assert(ExactBlocker.choose(5, 0) == 1L)
    assert(ExactBlocker.choose(5, 1) == 5L)
    assert(ExactBlocker.choose(5, 2) == 10L)
    assert(ExactBlocker.choose(5, 5) == 1L)
    assert(ExactBlocker.choose(25, 4) == 12650L)
    assert(ExactBlocker.choose(3, 4) == 0L)
  }

  test("unrank enumerates every b-subset exactly once") {
    for (k <- Seq(5, 7); b <- 1 to 3) {
      val total = ExactBlocker.choose(k, b)
      val subsets = (0L until total).map(i => ExactBlocker.unrank(i, b).toSet)
      assert(subsets.distinct.size == total)
      assert(subsets.forall(s => s.size == b && s.forall(x => x >= 0 && x < k)))
    }
  }

  test("unrank positions are strictly increasing") {
    for (i <- 0L until ExactBlocker.choose(6, 3)) {
      val pos = ExactBlocker.unrank(i, 3)
      assert(pos.sliding(2).forall(w => w(0) < w(1)), s"idx=$i -> ${pos.toSeq}")
    }
  }

  test("nextCombination steps through unrank's order") {
    for (k <- Seq(1, 5, 9); b <- 1 to math.min(k, 4)) {
      val pos = ExactBlocker.unrank(0L, b)
      for (idx <- 0L until ExactBlocker.choose(k, b)) {
        assert(pos.toSeq == ExactBlocker.unrank(idx, b).toSeq, s"k=$k b=$b idx=$idx")
        ExactBlocker.nextCombination(pos)
      }
    }
  }

  test("the sweep search equals the combination-major oracle on random small graphs") {
    // Two children of the seed with equal subtrees: blocking either gives the
    // same sum in every world, a tie the smaller index must win.
    val fork = ProbGraph.fromEdges(5, Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0)))
    val forkCandidates = Array(3, 1, 2, 4)
    assert(ExactBlocker.search(None, fork, Array(0), forkCandidates, 1, 5, 3L) == (15L, 1L))
    assert(oracleSearch(fork, Array(0), forkCandidates, 1, 5, 3L) == (15L, 1L))
    val rnd = new Random(23)
    var ties = 0
    for (k <- 0 until 60) {
      val n = 3 + rnd.nextInt(12)
      val edges = Seq.fill(rnd.nextInt(3 * n)) {
        val p = rnd.nextInt(3) match { case 0 => 0.0; case 1 => 1.0; case _ => rnd.nextDouble() }
        (rnd.nextInt(n), rnd.nextInt(n), p)
      }.filter(e => e._1 != e._2)
      val h = ProbGraph.fromEdges(n, edges)
      val roots = Array.fill(1 + rnd.nextInt(2))(rnd.nextInt(n)).distinct.sorted
      val candidates = candidatesOf(h, roots)
      if (candidates.nonEmpty) {
        val b = 1 + rnd.nextInt(math.min(3, candidates.length))
        for (theta <- Seq(1, 7, 50)) {
          val seed = rnd.nextLong()
          val want = oracleSearch(h, roots, candidates, b, theta, seed)
          assert(ExactBlocker.search(None, h, roots, candidates, b, theta, seed) == want, s"graph $k, b=$b, theta=$theta")
          val sums = (0L until ExactBlocker.choose(candidates.length, b)).map { idx =>
            ReachOracle.sum(h, roots, Blocking.maskOf(n, ExactBlocker.unrank(idx, b).map(candidates(_))), seed, theta)
          }
          if (sums.count(_ == want._1) > 1) ties += 1
        }
      }
    }
    assert(ties >= 10, s"only $ties searches had a tied minimum")
  }

  test("the sweep search equals the combination-major oracle on the Table V/VI extracts") {
    // The extracts of Tables.tableExactVsGR; a smaller pool than its 500
    // worlds, since the two searches agree world by world.
    val spec = Datasets.byName("EmailCore")
    for (model <- Seq("TR", "WC")) {
      val base = Datasets.withModel(spec.graph, model, spec.seed)
      for (i <- 1 to 3) {
        val (sub, _) = Extracts.neighborhoodExtract(base, 30, 42L + i)
        val roots = Datasets.randomSeeds(sub, 5, 142L + i).toArray.sorted
        val candidates = candidatesOf(sub, roots)
        val evalSeed = Rng.splitmix64(42L + 1000 + i - 1)
        for (b <- Seq(2, 3)) {
          val want = oracleSearch(sub, roots, candidates, b, 50, evalSeed)
          assert(ExactBlocker.search(None, sub, roots, candidates, b, 50, evalSeed) == want,
            s"$model extract $i (${candidates.length} candidates), b=$b")
        }
      }
    }
  }

  test("Exact finds v5 at b=1 on the toy graph") {
    val (blockers, spread) = ExactBlocker.run(spark, g, seeds, 1, 4000, 1L)
    assert(blockers == Seq(v(5)))
    assert(math.abs(spread - 3.0) < 0.1)
  }

  test("Exact finds {v2, v4} at b=2 on the toy graph") {
    val (blockers, spread) = ExactBlocker.run(spark, g, seeds, 2, 4000, 2L)
    assert(blockers.toSet == Set(v(2), v(4)))
    assert(math.abs(spread - 1.0) < 1e-9)
  }

  test("Exact spread is a lower bound for every heuristic (common worlds)") {
    val thetaEval = 2000
    val evalSeed = 3L
    val (_, exSpread) = ExactBlocker.run(spark, g, seeds, 1, thetaEval, evalSeed)
    for (u <- 0 until g.n if u != ToyGraph.seed) {
      val s = repro.spread.MonteCarloSpread.spreadLocal(
        g, Array(ToyGraph.seed), thetaEval, evalSeed, Blocking.maskOf(g.n, Seq(u)))
      assert(exSpread <= s + 1e-9, s"u=v${u + 1}")
    }
  }

  test("distributed Exact equals local Exact") {
    val candidates = (0 until g.n).filter(_ != ToyGraph.seed).toArray
    val roots = Array(ToyGraph.seed)
    // The last search has one combination: all but one of the job's slices are empty.
    for ((cs, b) <- Seq((candidates, 2), (candidates, 1), (Array(v(5)), 1))) {
      val local = ExactBlocker.search(None, g, roots, cs, b, 1000, 4L)
      val dist = ExactBlocker.search(Some(spark), g, roots, cs, b, 1000, 4L)
      assert(local == dist, s"${cs.length} candidates, b=$b")
    }
  }

  test("choose is exact up to the Long range and rejects counts beyond it") {
    assert(ExactBlocker.choose(66, 33) == 7219428434016265740L)
    assert(ExactBlocker.choose(66, 1) == 66L)
    intercept[ArithmeticException](ExactBlocker.choose(67, 33))
    intercept[ArithmeticException](ExactBlocker.choose(70, 35))
  }

  test("an Exact search with too many blocker sets is rejected before any Spark job") {
    def star(leaves: Int) = ProbGraph.fromEdges(leaves + 1, (1 to leaves).map(v => (0, v, 0.5)))
    val sc = spark.sparkContext
    sc.setJobGroup("exact-oversized", "oversized Exact search")
    try {
      // 70 blockable leaves: C(70, 35) ≈ 1.1e20 blocker sets, past the Long range.
      intercept[ArithmeticException](ExactBlocker.run(spark, star(70), Set(0), 35, 100, 1L))
      // 72 leaves at b = 4: C(72, 4) = 1 028 790 sets, the largest search of
      // Tables V/VI, but over 10⁵ worlds instead of 500: past the cap.
      val tooLong = intercept[IllegalArgumentException](ExactBlocker.run(spark, star(72), Set(0), 4, 100000, 1L))
      assert(tooLong.getMessage.contains("exceeds"), tooLong.getMessage)
      // Seeds are checked like every other algorithm's.
      val outOfRange = intercept[IllegalArgumentException](ExactBlocker.run(spark, star(3), Set(0, 9), 1, 100, 1L))
      assert(outOfRange.getMessage.contains("seed 9 out of range"), outOfRange.getMessage)
      val noSeed = intercept[IllegalArgumentException](ExactBlocker.run(spark, star(3), Set.empty, 1, 100, 1L))
      assert(noSeed.getMessage.contains("seed set must be non-empty"), noSeed.getMessage)
    } finally sc.clearJobGroup()
    assert(sc.statusTracker.getJobIdsForGroup("exact-oversized").isEmpty)
  }

  test("Exact agrees with brute-force enumeration over exact spreads on a small graph") {
    val h = ProbGraph.fromEdges(
      6,
      Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 0.5), (2, 3, 0.5), (3, 4, 1.0), (3, 5, 0.5)))
    val (blockers, _) = ExactBlocker.run(spark, h, Set(0), 1, 20000, 5L)
    val best = (1 until 6).minBy(u => (ExactSpread.spreadWithBlockers(h, Array(0), Seq(u)), u))
    assert(blockers == Seq(best))
  }

  test("budget larger than candidate count is clamped") {
    val h = ProbGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0)))
    val (blockers, spread) = ExactBlocker.run(spark, h, Set(0), 10, 100, 6L)
    assert(blockers.toSet == Set(1, 2))
    assert(spread == 1.0)
  }

  test("multi-seed Exact evaluates on the original graph") {
    val h = ProbGraph.fromEdges(5, Seq((0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0)))
    val (blockers, spread) = ExactBlocker.run(spark, h, Set(0, 1), 1, 100, 7L)
    assert(blockers == Seq(2))
    assert(spread == 2.0) // both seeds survive, everything else blocked
  }
}
