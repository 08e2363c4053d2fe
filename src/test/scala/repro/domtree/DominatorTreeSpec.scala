package repro.domtree

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{ProbGraph, SeedReduction, ToyGraph}
import repro.sampling.GraphSampler
import repro.util.Rng

class DominatorTreeSpec extends AnyFunSuite {

  private def idomMap(g: ProbGraph, root: Int, keep: Int => Boolean = _ => true): Map[Int, Int] = {
    val r = DominatorTree.compute(g, root, keep)
    (0 until g.n).flatMap(v => if (r.reachable(v)) Some(v -> r.idomOf(v)) else None).toMap
  }

  test("single path: each vertex is dominated by its predecessor") {
    val g = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    assert(idomMap(g, 0) == Map(0 -> 0, 1 -> 0, 2 -> 1, 3 -> 2))
  }

  test("diamond: join point is dominated by the fork") {
    val g = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
    assert(idomMap(g, 0) == Map(0 -> 0, 1 -> 0, 2 -> 0, 3 -> 0))
  }

  test("nested diamonds") {
    // 0 -> {1,2} -> 3 -> {4,5} -> 6
    val g = ProbGraph.fromEdges(
      7,
      Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
        (3, 4, 1.0), (3, 5, 1.0), (4, 6, 1.0), (5, 6, 1.0)))
    val m = idomMap(g, 0)
    assert(m(3) == 0)
    assert(m(6) == 3)
    assert(m(4) == 3 && m(5) == 3)
  }

  test("cycle back to the root does not break domination") {
    val g = ProbGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    assert(idomMap(g, 0) == Map(0 -> 0, 1 -> 0, 2 -> 1))
  }

  test("unreachable vertices are reported unreachable") {
    val g = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (2, 3, 1.0)))
    val r = DominatorTree.compute(g, 0, _ => true)
    assert(r.count == 2)
    assert(!r.reachable(2) && !r.reachable(3))
    assert(r.idomOf(2) == -1)
    assert(r.subtreeSizeOf(3) == 0)
  }

  test("classic Lengauer-Tarjan paper-style graph with cross and back edges") {
    // A graph where semidominator != parent for some vertex.
    val g = ProbGraph.fromEdges(
      6,
      Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0),
        (4, 5, 1.0), (5, 3, 1.0), (2, 4, 1.0)))
    val lt = idomMap(g, 0)
    val bf = DominatorTree.bruteForceIdoms(g, 0)
    for ((v, d) <- lt) assert(bf(v) == d, s"vertex $v")
  }

  test("toy graph full dominator tree: v5 dominates v3,v6,v8,v9 and v8 dominates v7") {
    val m = idomMap(ToyGraph.graph, ToyGraph.seed)
    def v(k: Int) = ToyGraph.v(k)
    assert(m(v(2)) == v(1))
    assert(m(v(4)) == v(1))
    assert(m(v(5)) == v(1)) // reachable via both v2 and v4
    assert(m(v(3)) == v(5))
    assert(m(v(6)) == v(5))
    assert(m(v(9)) == v(5))
    assert(m(v(8)) == v(5)) // reachable via v5 directly and via v9
    assert(m(v(7)) == v(8))
  }

  test("Figure 4a: dominator tree of sampled world with both (v5,v8) and (v9,v8)") {
    // live edges: all certain edges + (v5,v8) + (v9,v8); (v8,v7) dropped
    val g = ToyGraph.graph
    def v(k: Int) = ToyGraph.v(k)
    val keep = (e: Int) => {
      val (u, w, _) = g.edgeTriples(e)
      (u, w) != (v(8), v(7))
    }
    val m = idomMap(g, ToyGraph.seed, keep)
    assert(m(v(8)) == v(5))
    assert(!m.contains(v(7)))
    val r = DominatorTree.compute(g, ToyGraph.seed, keep)
    assert(r.subtreeSizeOf(v(5)) == 5) // v5, v3, v6, v9, v8 (Example 2: 5.1 with the 0.1-prob v7)
  }

  test("Figure 4c: world with only (v9,v8) — v8 dominated by v9") {
    val g = ToyGraph.graph
    def v(k: Int) = ToyGraph.v(k)
    val keep = (e: Int) => {
      val (u, w, _) = g.edgeTriples(e)
      (u, w) != (v(8), v(7)) && (u, w) != (v(5), v(8))
    }
    val m = idomMap(g, ToyGraph.seed, keep)
    assert(m(v(8)) == v(9))
    val r = DominatorTree.compute(g, ToyGraph.seed, keep)
    assert(r.subtreeSizeOf(v(9)) == 2) // v9 and v8
  }

  test("Figure 4d: world with neither edge into v8 — subtree of v5 is 4") {
    val g = ToyGraph.graph
    def v(k: Int) = ToyGraph.v(k)
    val keep = (e: Int) => {
      val (u, w, _) = g.edgeTriples(e)
      (u, w) != (v(8), v(7)) && (u, w) != (v(5), v(8)) && (u, w) != (v(9), v(8))
    }
    val r = DominatorTree.compute(g, ToyGraph.seed, keep)
    assert(r.count == 7)
    assert(r.subtreeSizeOf(v(5)) == 4) // v5, v3, v6, v9 (Example 2)
    assert(!r.reachable(v(8)) && !r.reachable(v(7)))
  }

  test("subtree sizes sum correctly: root subtree equals reachable count") {
    val g = ToyGraph.graph
    val r = DominatorTree.compute(g, ToyGraph.seed, _ => true)
    assert(r.subtreeSizeOf(ToyGraph.seed) == r.count)
  }

  test("every non-root reachable vertex has a reachable immediate dominator") {
    val g = ToyGraph.graph
    val r = DominatorTree.compute(g, ToyGraph.seed, _ => true)
    for (v <- 0 until g.n if r.reachable(v) && v != ToyGraph.seed) {
      assert(r.reachable(r.idomOf(v)))
      assert(r.idomOf(v) != v)
    }
  }

  test("LT matches brute force on 60 random digraphs") {
    val rnd = new scala.util.Random(99)
    for (trial <- 1 to 60) {
      val n = 3 + rnd.nextInt(25)
      val mEdges = rnd.nextInt(4 * n)
      val edges = Seq.fill(mEdges)((rnd.nextInt(n), rnd.nextInt(n), 1.0)).filter(e => e._1 != e._2)
      val g = ProbGraph.fromEdges(n, edges)
      val root = rnd.nextInt(n)
      val lt = DominatorTree.compute(g, root, _ => true)
      val bf = DominatorTree.bruteForceIdoms(g, root)
      for (v <- 0 until n) {
        val ltIdom = if (lt.reachable(v)) lt.idomOf(v) else -1
        assert(ltIdom == bf(v), s"trial=$trial root=$root vertex=$v edges=${g.edgeTriples}")
      }
    }
  }

  test("LT matches brute force on random subgraphs (sampled-edge predicate)") {
    val rnd = new scala.util.Random(123)
    for (trial <- 1 to 30) {
      val n = 4 + rnd.nextInt(15)
      val edges = Seq.fill(3 * n)((rnd.nextInt(n), rnd.nextInt(n), 1.0)).filter(e => e._1 != e._2)
      val g = ProbGraph.fromEdges(n, edges)
      val keepMask = Array.fill(g.m)(rnd.nextBoolean())
      val keep = (e: Int) => keepMask(e)
      val lt = DominatorTree.compute(g, 0, keep)
      val bf = DominatorTree.bruteForceIdoms(g, 0, keep)
      for (v <- 0 until n) {
        val ltIdom = if (lt.reachable(v)) lt.idomOf(v) else -1
        assert(ltIdom == bf(v), s"trial=$trial vertex=$v")
      }
    }
  }

  test("subtree size equals count of vertices whose removal-of-u disconnects them (Theorem 6)") {
    val rnd = new scala.util.Random(7)
    for (_ <- 1 to 20) {
      val n = 4 + rnd.nextInt(12)
      val edges = Seq.fill(3 * n)((rnd.nextInt(n), rnd.nextInt(n), 1.0)).filter(e => e._1 != e._2)
      val g = ProbGraph.fromEdges(n, edges)
      val root = 0
      val r = DominatorTree.compute(g, root, _ => true)
      // direct sigma->u: reachable before minus reachable after removing u
      def reach(skip: Int): Set[Int] = {
        var vis = Set.empty[Int]
        def dfs(u: Int): Unit = if (!vis(u) && u != skip) {
          vis += u; g.outNeighbors(u).foreach(dfs)
        }
        if (root != skip) dfs(root)
        vis
      }
      val full = reach(-1)
      for (u <- 0 until n if r.reachable(u) && u != root) {
        val sigma = full.size - reach(u).size
        assert(r.subtreeSizeOf(u) == sigma, s"u=$u")
      }
    }
  }

  test("computeAll is compute with the constant-true predicate") {
    val g = ToyGraph.graph
    val a = DominatorTree.computeAll(g, ToyGraph.seed)
    val b = DominatorTree.compute(g, ToyGraph.seed, _ => true)
    assert(a.count == b.count)
    assert((0 until g.n).forall(v => a.idomOf(v) == b.idomOf(v)))
  }

  /** Subtree size per reached vertex after one kernel call. */
  private def kernelSizes(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      keep: Int => Boolean,
      ws: DominatorTree.Workspace): Map[Int, Int] = {
    DominatorTree.compute(g, roots, blocked, keep, ws)
    (1 until ws.count).map(i => ws.vertexOf(i) -> ws.size(i)).toMap
  }

  /** A random graph on `n` vertices with about `k` edges per vertex. */
  private def randomGraph(rnd: scala.util.Random, n: Int, k: Int, probs: Seq[Double] = Seq(1.0)): ProbGraph =
    ProbGraph.fromEdges(n, Seq.fill(k * n)((rnd.nextInt(n), rnd.nextInt(n), probs(rnd.nextInt(probs.size))))
      .filter(e => e._1 != e._2))

  test("keepEdge is asked at most once per edge per sample") {
    val rnd = new scala.util.Random(31)
    for (trial <- 1 to 50) {
      val g = randomGraph(rnd, 3 + rnd.nextInt(30), 3)
      val keepMask = Array.fill(g.m)(rnd.nextDouble() < 0.7)
      val calls = new Array[Int](g.m)
      val counting = (e: Int) => { calls(e) += 1; keepMask(e) }
      DominatorTree.compute(g, 0, counting)
      assert(calls.forall(_ <= 1), s"single root, trial=$trial")
      java.util.Arrays.fill(calls, 0)
      val blocked = Array.fill(g.n)(rnd.nextDouble() < 0.2)
      DominatorTree.compute(g, Array(0, 1, 2).filter(_ < g.n), blocked, counting, new DominatorTree.Workspace(g.n))
      assert(calls.forall(_ <= 1), s"roots and mask, trial=$trial")
    }
  }

  test("a reused workspace gives a fresh one's subtree sizes and leaves every dfn at -1") {
    val rnd = new scala.util.Random(32)
    val g = randomGraph(rnd, 300, 4)
    val roots = Array(0, 7, 42)
    val narrow = (e: Int) => Rng.edgeUniform(1L, e) < 0.1
    val wide = (_: Int) => true
    val mask = Array.fill(g.n)(rnd.nextDouble() < 0.3)
    val ws = new DominatorTree.Workspace(g.n)
    for ((keep, blocked, what) <- Seq((narrow, null, "narrow"), (wide, null, "wide"), (wide, mask, "masked"),
        (narrow, null, "narrow again"))) {
      val reused = kernelSizes(g, roots, blocked, keep, ws)
      val fresh = kernelSizes(g, roots, blocked, keep, new DominatorTree.Workspace(g.n))
      assert(reused == fresh, what)
      assert(ws.dfn.forall(_ == -1), what)
    }
    assert(kernelSizes(g, roots, null, wide, ws).size > 100) // the wide world outgrew the initial arrays
  }

  test("the multi-root kernel matches brute force below a virtual root on the blocked graph") {
    val rnd = new scala.util.Random(33)
    for (trial <- 1 to 100) {
      val n = 3 + rnd.nextInt(20)
      val g = randomGraph(rnd, n, 3)
      val roots = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(n))
      val mask = Array.fill(n)(rnd.nextDouble() < 0.25)
      val ws = new DominatorTree.Workspace(n)
      DominatorTree.compute(g, roots, mask, _ => true, ws)
      // Vertex n is the virtual root of the brute-force graph.
      val lifted = ProbGraph.fromEdges(n + 1,
        g.blockVertices(mask).edgeTriples ++ roots.filterNot(mask).map(r => (n, r, 1.0)))
      val bf = DominatorTree.bruteForceIdoms(lifted, n)
      val kernel = Array.fill(n)(-1)
      for (i <- 1 until ws.count) kernel(ws.vertexOf(i)) = if (ws.idom(i) == 0) n else ws.vertexOf(ws.idom(i))
      assert(kernel.toSeq == bf.toSeq.take(n), s"trial=$trial roots=${roots.toSeq} mask=${mask.toSeq}")
    }
  }

  test("the virtual root gives the subtree sizes of the seed reduction in every world (paper §V)") {
    val rnd = new scala.util.Random(34)
    for (trial <- 1 to 1000) {
      val n = 3 + rnd.nextInt(9)
      val g = randomGraph(rnd, n, 2, Seq(0.0, 0.4, 1.0))
      val seeds = Set.fill(2 + rnd.nextInt(2))(rnd.nextInt(n))
      val mask = Array.tabulate(n)(v => !seeds(v) && rnd.nextDouble() < 0.2)
      val live = GraphSampler.edgeMask(g, Rng.sampleSeed(35L, trial.toLong))
      val kernel = kernelSizes(g, seeds.toArray.sorted, mask, live, new DominatorTree.Workspace(n))
      // The same world as a graph of certain edges, blocked, then reduced.
      val world = ProbGraph.fromEdges(n, g.edgeTriples.zip(live).collect { case ((u, v, _), true) => (u, v, 1.0) })
      val red = SeedReduction.reduce(world.blockVertices(mask), seeds)
      val dt = DominatorTree.compute(red.graph, red.superSeed, _ => true)
      for (v <- 0 until n if !seeds(v))
        assert(kernel.getOrElse(v, 0) == dt.subtreeSizeOf(v), s"trial=$trial v=$v seeds=$seeds edges=${g.edgeTriples}")
    }
  }
}
