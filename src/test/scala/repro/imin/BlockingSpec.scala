package repro.imin

import repro.SparkSpec
import repro.graph.ProbGraph

class BlockingSpec extends SparkSpec {

  test("support excludes vertices reachable only over p = 0 edges, and BG and Exact never block them") {
    // 1 -> 3 never fires, so 3 and everything only 3 reaches (4) is outside
    // the support; 2 is also reached over 1 -> 2. The root 0 is outside it too.
    val g = ProbGraph.fromEdges(5, Seq((0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.0), (3, 4, 1.0), (3, 2, 1.0)))
    val support = Blocking.support(g, Array(0))
    assert((0 until g.n).filter(support(_)) == Seq(1, 2))
    val outside = Set(3, 4)
    val bg = BaselineGreedy.run(spark, g, Set(0), 3, 200, 1L)
    // Every blocker set containing 1 is optimal, and the first of the
    // C(4, 3) sets over all four non-seeds would be {1, 2, 3}.
    val (exact, _) = ExactBlocker.run(spark, g, Set(0), 3, 200, 1L)
    assert(bg.nonEmpty && !bg.exists(outside), s"bg=$bg")
    assert(exact.toSet == Set(1, 2), s"exact=$exact")
  }
}
