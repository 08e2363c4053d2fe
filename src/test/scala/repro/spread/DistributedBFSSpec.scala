package repro.spread

import repro.{Oracle, SparkSpec}
import repro.domtree.DominatorTree
import repro.graph.{ProbGraph, ToyGraph}

/** Reachability cases run on the one kernel, [[DominatorTree.walk]], whose
  * reached set is read off the workspace's `vertexOf`.
  *
  * The suite keeps the name and test names it had when it checked the
  * DataFrame-join and GraphX Pregel reachability copies, so results stay
  * comparable by test id across versions; every test now runs the kernel,
  * and the two `WITH RECURSIVE` tests keep DuckDB as its independent oracle.
  */
class DistributedBFSSpec extends SparkSpec {

  private val toy = ToyGraph.graph
  private def v(k: Int) = ToyGraph.v(k)
  private val all = (_: Int) => true

  private def certain(n: Int, edges: (Int, Int)*) =
    ProbGraph.fromEdges(n, edges.map { case (a, b) => (a, b, 1.0) })

  private def reachOf(g: ProbGraph, roots: Array[Int], keep: Int => Boolean): (Set[Int], Int) = {
    val ws = new DominatorTree.Workspace(g.n)
    val count = DominatorTree.walk(g, roots, null, keep, ws)
    ((1 to count).map(ws.vertexOf(_)).toSet, count)
  }

  // (test name, graph, roots, keepEdge, expected reach)
  private val cases = Seq(
    ("reachable on the toy graph finds all 9 vertices over certain+uncertain edges",
      toy, Array(ToyGraph.seed), all, (0 until 9).toSet),
    ("reachable stops at disconnected components",
      certain(5, (0, 1), (1, 2), (3, 4)), Array(0), all, Set(0, 1, 2)),
    ("reachable handles cycles",
      certain(3, (0, 1), (1, 2), (2, 0)), Array(0), all, Set(0, 1, 2)),
    ("reachable with multiple roots unions their reaches",
      certain(6, (0, 2), (1, 3), (3, 4)), Array(0, 1), all, Set(0, 1, 2, 3, 4)),
    ("a root with no outgoing edges reaches only itself",
      certain(3, (0, 1)), Array(2), all, Set(2)),
    // drop both edges into v8 — v8 and v7 become unreachable
    ("GraphX Pregel respects a live-edge predicate",
      toy, Array(ToyGraph.seed), (e: Int) => toy.targets(e) != v(8),
      Set(v(1), v(2), v(3), v(4), v(5), v(6), v(9))))

  for ((name, g, roots, keep, expected) <- cases)
    test(name) {
      val (reached, count) = reachOf(g, roots, keep)
      assert(reached == expected)
      assert(count == expected.size)
    }

  /** Vertices the kernel reaches from `root` with every edge live, as a table. */
  private def reachAllDF(g: ProbGraph, root: Int) = {
    import spark.implicits._
    reachOf(g, Array(root), all)._1.toSeq.toDF("vertex")
  }

  private def recursiveReach(root: Int) =
    s"""WITH RECURSIVE reach AS (
       |  SELECT '$root' AS vertex
       |  UNION
       |  SELECT e.dst AS vertex FROM edges e JOIN reach r ON e.src = r.vertex
       |) SELECT vertex FROM reach""".stripMargin

  test("DataFrame BFS matches DuckDB WITH RECURSIVE oracle") {
    Oracle.assertEquivalent(
      reachAllDF(toy, ToyGraph.seed), recursiveReach(ToyGraph.seed),
      "edges" -> toy.toDF(spark).select("src", "dst"))
  }

  test("DataFrame BFS matches DuckDB recursive oracle on a random graph") {
    val rnd = new scala.util.Random(37)
    val n = 25
    val edges = Seq.fill(60)((rnd.nextInt(n), rnd.nextInt(n), 1.0)).filter(e => e._1 != e._2).distinct
    val g = ProbGraph.fromEdges(n, edges)
    Oracle.assertEquivalent(reachAllDF(g, 0), recursiveReach(0), "edges" -> g.toDF(spark).select("src", "dst"))
  }
}
