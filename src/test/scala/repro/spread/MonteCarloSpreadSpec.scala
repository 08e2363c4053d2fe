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

  test("sweepSums equals reachSum with each candidate added to the mask") {
    // Blocker sets of stride 1 to 4 whose members may be roots, blocked,
    // off the support or repeated, on graphs with duplicate edges.
    val rnd = new Random(17)
    val covered = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    for (k <- 0 until 120) {
      val n = 2 + rnd.nextInt(30)
      // Certain, impossible and uncertain edges; about a quarter of them twice.
      val drawn = Seq.fill(rnd.nextInt(4 * n)) {
        val p = rnd.nextInt(3) match { case 0 => 0.0; case 1 => 1.0; case _ => rnd.nextDouble() }
        (rnd.nextInt(n), rnd.nextInt(n), p)
      }.filter(e => e._1 != e._2)
      val edges = rnd.shuffle(drawn ++ drawn.filter(_ => rnd.nextInt(4) == 0))
      val h = ProbGraph.fromEdges(n, edges)
      val roots = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(n)).distinct.sorted
      val blocked = if (k % 10 == 0) null else Array.fill(n)(rnd.nextInt(5) == 0)
      val stride = 1 + k % 4
      // Stride 1: every vertex once, in random order (BG's candidates);
      // wider: random vertices, so members repeat within a set.
      val sets =
        if (stride == 1) rnd.shuffle((0 until n).toVector).toArray
        else Array.fill(stride * rnd.nextInt(2 * n + 1))(rnd.nextInt(n))
      val nSets = sets.length / stride
      val from = rnd.nextInt(nSets + 1)
      val until = from + rnd.nextInt(nSets - from + 1)
      val support = Blocking.support(h, roots)
      for (i <- from until until; set = sets.slice(i * stride, (i + 1) * stride)) {
        // A set with a root member starts at the other roots, any other
        // set at the roots' live successors.
        if (set.exists(roots.contains)) covered("root") += 1 else covered("no root") += 1
        if (blocked != null && set.exists(blocked)) covered("blocked") += 1
        if (set.exists(!support(_))) covered("off the support") += 1
        if (set.distinct.length < stride) covered("repeated") += 1
      }
      val ws = new DominatorTree.Workspace(n)
      for (r <- Seq(1, 7, 100)) {
        val seed = rnd.nextLong()
        // Each set's sum from the tests' own reach, which reachSum must equal.
        val want = (from until until).map { i =>
          val mask = if (blocked == null) new Array[Boolean](n) else blocked.clone()
          (i * stride until (i + 1) * stride).foreach(j => mask(sets(j)) = true)
          val sum = ReachOracle.sum(h, roots, mask, seed, r)
          assert(MonteCarloSpread.reachSum(h, roots, mask, seed, 0L, r) == sum, s"graph $k, set $i, r = $r")
          sum
        }
        // Some world has a root that an earlier root's walk reaches first.
        val rootReachedFirst = from < until && (0 until r).exists { i =>
          var reached = Set.empty[Int]
          roots.exists { v =>
            if (blocked != null && blocked(v)) false
            else reached(v) || { reached ++= ReachOracle.world(h, Seq(v), blocked, Rng.sampleSeed(seed, i)); false }
          }
        }
        if (rootReachedFirst) covered("reached by another root") += 1
        val base = ReachOracle.sum(h, roots, blocked, seed, r)
        assert(MonteCarloSpread.reachSum(h, roots, blocked, seed, 0L, r) == base, s"graph $k, base, r = $r")
        val (gotBase, got) = MonteCarloSpread.sweepSums(h, roots, blocked, sets, stride, from, until, r, seed, ws)
        assert(gotBase == base, s"graph $k, base, stride $stride, r = $r, sets [$from, $until)")
        assert(got.toSeq == want, s"graph $k, stride $stride, r = $r, sets [$from, $until)")
        val (againBase, again) = MonteCarloSpread.sweepSums(h, roots, blocked, sets, stride, from, until, r, seed, ws)
        assert(againBase == base && again.toSeq == want, s"reused workspace: graph $k, stride $stride, r = $r")
        assert(ws.dfn.forall(_ == -1), s"graph $k, r = $r")
      }
    }
    for (kind <- Seq("root", "no root", "blocked", "off the support", "repeated", "reached by another root"))
      assert(covered(kind) >= 10, s"only ${covered(kind)} cases: $kind")
  }

  test("r must be positive") {
    intercept[IllegalArgumentException](MonteCarloSpread.spreadLocal(g, roots, 0, 1L))
    intercept[IllegalArgumentException](MonteCarloSpread.spread(spark, g, roots, 0, 1L))
  }
}
