package repro.spread

import repro.SparkSpec
import repro.domtree.DominatorTree
import repro.graph.{ProbGraph, ToyGraph}
import repro.imin.Blocking
import repro.sampling.ReachOracle
import repro.util.Rng
import scala.util.Random

class MonteCarloSpreadSpec extends SparkSpec {

  private val g = ToyGraph.graph
  private val roots = Array(ToyGraph.seed)

  test("MCS converges to the exact expected spread on the toy graph") {
    val est = MonteCarloSpread.spreadLocal(g, roots, r = 50000, masterSeed = 1L)
    assert(math.abs(est - 7.66) < 0.03, s"est=$est")
  }

  test("MCS on a deterministic graph is exact with a single round") {
    val h = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)))
    assert(MonteCarloSpread.spreadLocal(h, Array(0), 1, 2L) == 4.0)
  }

  test("MCS with blockers converges to the exact blocked spread") {
    def v(k: Int) = ToyGraph.v(k)
    val mask = Blocking.maskOf(g.n, Seq(v(5)))
    val est = MonteCarloSpread.spreadLocal(g, roots, 20000, 3L, mask)
    assert(math.abs(est - 3.0) < 1e-9) // blocked toy graph is deterministic
  }

  test("spreadLocal is deterministic in the master seed") {
    val a = MonteCarloSpread.spreadLocal(g, roots, 500, 5L)
    val b = MonteCarloSpread.spreadLocal(g, roots, 500, 5L)
    assert(a == b)
  }

  test("distributed spread equals local spread exactly (same worlds)") {
    // r = 1 leaves all but one of the job's slices empty.
    for (r <- Seq(1, 3000)) {
      val local = MonteCarloSpread.spreadLocal(g, roots, r, 7L)
      val dist = MonteCarloSpread.spread(spark, g, roots, r, 7L)
      assert(local == dist, s"r=$r local=$local dist=$dist")
    }
  }

  test("distributed spread with blockers equals local") {
    def v(k: Int) = ToyGraph.v(k)
    val mask = Blocking.maskOf(g.n, Seq(v(9)))
    val local = MonteCarloSpread.spreadLocal(g, roots, 2000, 9L, mask)
    val dist = MonteCarloSpread.spread(spark, g, roots, 2000, 9L, mask)
    assert(math.abs(local - dist) < 1e-12)
  }

  test("spreadWithBlockers helper builds the right mask") {
    def v(k: Int) = ToyGraph.v(k)
    val a = MonteCarloSpread.spreadWithBlockers(spark, g, roots, Seq(v(2), v(4)), 500, 11L)
    assert(math.abs(a - 1.0) < 1e-12) // only the seed remains
  }

  test("common random numbers: same seed gives montone spreads under growing blocker sets") {
    def v(k: Int) = ToyGraph.v(k)
    val seed = 13L
    val none = MonteCarloSpread.spreadLocal(g, roots, 2000, seed)
    val one = MonteCarloSpread.spreadLocal(g, roots, 2000, seed, Blocking.maskOf(g.n, Seq(v(9))))
    val two = MonteCarloSpread.spreadLocal(g, roots, 2000, seed, Blocking.maskOf(g.n, Seq(v(9), v(5))))
    assert(one <= none && two <= one) // holds exactly with common worlds
  }

  test("multi-seed spread counts all seeds") {
    val h = ProbGraph.fromEdges(4, Seq((0, 2, 1.0), (1, 3, 1.0)))
    assert(MonteCarloSpread.spreadLocal(h, Array(0, 1), 10, 15L) == 4.0)
  }

  test("sweepSums over world ranges equals the reach oracle per set") {
    // The first k blocker sets of stride 1 to 4, whose members may be
    // blocked, off the support or repeated, on graphs with duplicate edges,
    // swept over [0, r) and over [0, a) then [a, r); a set holding a root
    // is rejected.
    val rnd = new Random(17)
    val covered = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    for (graph <- 0 until 120) {
      val n = 2 + rnd.nextInt(30)
      // Certain, impossible and uncertain edges; about a quarter of them twice.
      val drawn = Seq.fill(rnd.nextInt(4 * n)) {
        val p = rnd.nextInt(3) match { case 0 => 0.0; case 1 => 1.0; case _ => rnd.nextDouble() }
        (rnd.nextInt(n), rnd.nextInt(n), p)
      }.filter(e => e._1 != e._2)
      val edges = rnd.shuffle(drawn ++ drawn.filter(_ => rnd.nextInt(4) == 0))
      val h = ProbGraph.fromEdges(n, edges)
      val roots = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(n)).distinct.sorted
      val others = (0 until n).filterNot(roots.contains).toVector
      val blocked = if (graph % 10 == 0) null else Array.fill(n)(rnd.nextInt(5) == 0)
      val stride = 1 + graph % 4
      // Stride 1: every non-root once, in random order (BG's candidates);
      // wider: random non-roots, so members repeat within a set.
      val sets =
        if (stride == 1) rnd.shuffle(others).toArray
        else if (others.isEmpty) Array.emptyIntArray
        else Array.fill(stride * rnd.nextInt(2 * n + 1))(others(rnd.nextInt(others.length)))
      val k = rnd.nextInt(sets.length / stride + 1)
      val support = Blocking.support(h, roots)
      for (i <- 0 until k; set = sets.slice(i * stride, (i + 1) * stride)) {
        if (blocked != null && set.exists(blocked)) covered("blocked") += 1
        if (set.exists(!support(_))) covered("off the support") += 1
        if (set.distinct.length < stride) covered("repeated") += 1
      }
      val ws = new DominatorTree.Workspace(n)
      for (r <- Seq(1, 7, 100)) {
        val seed = rnd.nextLong()
        // Each set's sum from the tests' own reach.
        val want = (0 until k).map { i =>
          val mask = if (blocked == null) new Array[Boolean](n) else blocked.clone()
          (i * stride until (i + 1) * stride).foreach(j => mask(sets(j)) = true)
          ReachOracle.sum(h, roots, mask, seed, r)
        }
        // Some world has a root that an earlier root's walk reaches first.
        val rootReachedFirst = k > 0 && (0 until r).exists { i =>
          var reached = Set.empty[Int]
          roots.exists { v =>
            if (blocked != null && blocked(v)) false
            else reached(v) || { reached ++= ReachOracle.world(h, Seq(v), blocked, Rng.sampleSeed(seed, i)); false }
          }
        }
        if (rootReachedFirst) covered("reached by another root") += 1
        val base = ReachOracle.sum(h, roots, blocked, seed, r)
        val (gotBase, got) = MonteCarloSpread.sweepSums(h, roots, blocked, sets, stride, k, 0L, r, seed, ws)
        assert(gotBase == base, s"graph $graph, base, stride $stride, r = $r, $k sets")
        assert(got.toSeq == want, s"graph $graph, stride $stride, r = $r, $k sets")
        val (onlyBase, none) = MonteCarloSpread.sweepSums(h, roots, blocked, sets, stride, 0, 0L, r, seed, ws)
        assert(onlyBase == base && none.isEmpty, s"graph $graph, no set, r = $r")
        val a = rnd.nextInt(r + 1)
        val (lowBase, low) = MonteCarloSpread.sweepSums(h, roots, blocked, sets, stride, k, 0L, a, seed, ws)
        val (highBase, high) = MonteCarloSpread.sweepSums(h, roots, blocked, sets, stride, k, a, r, seed, ws)
        assert(lowBase + highBase == base, s"graph $graph, base over [0, $a) and [$a, $r)")
        assert(low.indices.map(i => low(i) + high(i)) == want, s"graph $graph, stride $stride, [0, $a) and [$a, $r)")
        assert(ws.dfn.forall(_ == -1), s"graph $graph, r = $r")
        if (k > 0) {
          // Any member of any of the first k sets may be a root.
          val withRoot = sets.clone()
          withRoot(rnd.nextInt(k * stride)) = roots(rnd.nextInt(roots.length))
          intercept[IllegalArgumentException](
            MonteCarloSpread.sweepSums(h, roots, blocked, withRoot, stride, k, 0L, r, seed, ws))
          covered("a root") += 1
        }
      }
    }
    for (kind <- Seq("a root", "blocked", "off the support", "repeated", "reached by another root"))
      assert(covered(kind) >= 10, s"only ${covered(kind)} cases: $kind")
  }

  test("r must be positive") {
    intercept[IllegalArgumentException](MonteCarloSpread.spreadLocal(g, roots, 0, 1L))
    intercept[IllegalArgumentException](MonteCarloSpread.spread(spark, g, roots, 0, 1L))
  }
}
