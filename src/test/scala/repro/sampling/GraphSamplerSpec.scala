package repro.sampling

import org.scalatest.funsuite.AnyFunSuite
import repro.domtree.DominatorTree
import repro.graph.{ProbGraph, ToyGraph}
import repro.util.Rng

class GraphSamplerSpec extends AnyFunSuite {

  private val g = ToyGraph.graph

  /** The vertices `DominatorTree.walk` reaches from `roots` in the world
    * `sampleSeed`, read off the workspace's `vertexOf`.
    */
  private def reachSet(h: ProbGraph, roots: Array[Int], sampleSeed: Long, blocked: Array[Boolean] = null): Set[Int] = {
    val ws = new DominatorTree.Workspace(h.n)
    val count = DominatorTree.walk(h, roots, blocked, GraphSampler.liveEdge(h, sampleSeed), ws)
    (1 to count).map(ws.vertexOf(_)).toSet
  }

  test("reach grows its stack past the initial size on a wide star") {
    // a star wider than the workspace's initial 16-entry arrays, so its
    // per-dfn and edge arrays have to grow
    val star = ProbGraph.fromEdges(41, (1 to 40).map(leaf => (0, leaf, 1.0)))
    val ws = new DominatorTree.Workspace(star.n)
    assert(DominatorTree.walk(star, Array(0), null, _ => true, ws) == 41)
    assert(ws.vertexOf.length > 16 && ws.edgeSrc.length > 16)
    assert((1 to 41).map(ws.vertexOf(_)).toSet == (0 until 41).toSet)
  }

  test("edgeMask keeps certain edges in every sample") {
    for (id <- 0L until 50L) {
      val mask = GraphSampler.edgeMask(g, Rng.sampleSeed(1L, id))
      for ((e, i) <- g.edgeTriples.zipWithIndex if e._3 >= 1.0)
        assert(mask(i), s"sample $id dropped certain edge $i")
    }
  }

  test("edgeMask matches the liveEdge predicate") {
    val seed = Rng.sampleSeed(2L, 3L)
    val mask = GraphSampler.edgeMask(g, seed)
    val pred = GraphSampler.liveEdge(g, seed)
    assert((0 until g.m).forall(e => mask(e) == pred(e)))
  }

  test("uncertain edge inclusion frequency approximates its probability") {
    val idx58 = g.edgeTriples.indexWhere(t => t._3 == 0.5) // (v5, v8)
    val n = 20000
    val hits = (0L until n.toLong).count(id => GraphSampler.liveEdge(g, Rng.sampleSeed(3L, id))(idx58))
    val freq = hits.toDouble / n
    assert(math.abs(freq - 0.5) < 0.015, s"freq=$freq")
  }

  test("reachCount equals reachSet size") {
    for (id <- 0L until 20L) {
      val seed = Rng.sampleSeed(4L, id)
      assert(
        GraphSampler.reachCount(g, Array(ToyGraph.seed), seed) ==
          reachSet(g, Array(ToyGraph.seed), seed).size)
    }
  }

  test("reach always contains the root") {
    for (id <- 0L until 20L) {
      val s = reachSet(g, Array(ToyGraph.seed), Rng.sampleSeed(5L, id))
      assert(s.contains(ToyGraph.seed))
    }
  }

  test("toy graph: certain part is always reached") {
    def v(k: Int) = ToyGraph.v(k)
    for (id <- 0L until 30L) {
      val s = reachSet(g, Array(ToyGraph.seed), Rng.sampleSeed(6L, id))
      assert(Set(v(1), v(2), v(3), v(4), v(5), v(6), v(9)).subsetOf(s))
    }
  }

  test("average reach count converges to the exact expected spread (Lemma 1)") {
    val n = 50000
    val sum = (0L until n.toLong).map(id => GraphSampler.reachCount(g, Array(ToyGraph.seed), Rng.sampleSeed(7L, id)).toLong).sum
    val est = sum.toDouble / n
    assert(math.abs(est - ToyGraph.expectedSpread) < 0.03, s"est=$est")
  }

  test("blocked vertices are never reached") {
    def v(k: Int) = ToyGraph.v(k)
    val blocked = new Array[Boolean](g.n)
    blocked(v(5)) = true
    for (id <- 0L until 30L) {
      val s = reachSet(g, Array(ToyGraph.seed), Rng.sampleSeed(8L, id), blocked)
      assert(!s.contains(v(5)))
      // v5 dominates everything downstream of it
      assert(s == Set(v(1), v(2), v(4)))
    }
  }

  test("blocking the root yields an empty reach") {
    val blocked = new Array[Boolean](g.n)
    blocked(ToyGraph.seed) = true
    assert(GraphSampler.reachCount(g, Array(ToyGraph.seed), 1L, blocked) == 0)
  }

  test("multi-root reach unions the individual reaches") {
    val h = ProbGraph.fromEdges(5, Seq((0, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0)))
    val s = reachSet(h, Array(0, 1), 1L)
    assert(s == Set(0, 1, 2, 3, 4))
  }

  test("duplicate roots are counted once") {
    val h = ProbGraph.fromEdges(3, Seq((0, 1, 1.0)))
    assert(GraphSampler.reachCount(h, Array(0, 0), 1L) == 2)
  }

  test("same sampleSeed gives identical worlds regardless of blocker set (common random numbers)") {
    def v(k: Int) = ToyGraph.v(k)
    for (id <- 0L until 50L) {
      val seed = Rng.sampleSeed(9L, id)
      val free = reachSet(g, Array(ToyGraph.seed), seed)
      val blocked = new Array[Boolean](g.n)
      blocked(v(9)) = true
      val withBlock = reachSet(g, Array(ToyGraph.seed), seed, blocked)
      // the blocked world is the free world minus vertices only reachable via v9
      assert(withBlock.subsetOf(free - v(9)))
    }
  }
}
