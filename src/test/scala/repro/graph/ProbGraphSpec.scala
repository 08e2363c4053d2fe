package repro.graph

import repro.{Oracle, SparkSpec}

class ProbGraphSpec extends SparkSpec {

  private def diamond = ProbGraph.fromEdges(4, Seq((0, 1, 0.5), (0, 2, 1.0), (1, 3, 0.2), (2, 3, 0.7)))

  test("fromEdges builds correct vertex/edge counts") {
    val g = diamond
    assert(g.n == 4)
    assert(g.m == 4)
  }

  test("out-degrees match the edge list") {
    val g = diamond
    assert(g.outDegree(0) == 2)
    assert(g.outDegree(1) == 1)
    assert(g.outDegree(2) == 1)
    assert(g.outDegree(3) == 0)
  }

  test("outNeighbors returns the right targets") {
    val g = diamond
    assert(g.outNeighbors(0).toSet == Set(1, 2))
    assert(g.outNeighbors(3).isEmpty)
  }

  test("inDegrees counts incoming edges") {
    val g = diamond
    assert(g.inDegrees.toSeq == Seq(0, 1, 1, 2))
  }

  test("edgeTriples round-trips through fromEdges") {
    val g = diamond
    val g2 = ProbGraph.fromEdges(g.n, g.edgeTriples)
    assert(g2.edgeTriples == g.edgeTriples)
  }

  test("blockVertices removes all edges incident to blocked vertices") {
    val g = diamond
    val blocked = Array(false, true, false, false)
    val b = g.blockVertices(blocked)
    assert(b.n == g.n)
    assert(b.edgeTriples.toSet == Set((0, 2, 1.0), (2, 3, 0.7)))
  }

  test("blockVertices with empty mask is a no-op") {
    val g = diamond
    assert(g.blockVertices(new Array[Boolean](4)).edgeTriples == g.edgeTriples)
  }

  test("blockVertices rejects wrong mask length") {
    intercept[IllegalArgumentException](diamond.blockVertices(new Array[Boolean](3)))
  }

  test("mapProbs rejects a probability outside [0, 1] or NaN") {
    for (bad <- Seq(1.5, -0.1, Double.NaN, Double.PositiveInfinity)) {
      val e = intercept[IllegalArgumentException](diamond.mapProbs((i, _, _) => if (i == 2) bad else 0.5))
      assert(e.getMessage.contains("outside [0,1] on (1,3)"), e.getMessage)
    }
  }

  test("every graph carries the integer cut of each probability") {
    val g = ProbGraph.fromEdges(3, Seq((0, 1, 0.0), (0, 2, 1.0), (1, 2, math.pow(2, -32)), (2, 0, 0.5)))
    assert(g.cuts.toSeq == Seq(0, -1, 1, Int.MinValue))
    val h = g.mapProbs((_, _, _) => 1.0)
    assert(h.cuts.forall(_ == -1) && g.cuts.toSeq == Seq(0, -1, 1, Int.MinValue))
  }

  test("mapProbs rewrites probabilities in place") {
    val g = diamond.mapProbs((_, _, _) => 0.25)
    assert(g.probs.forall(_ == 0.25))
    assert(g.targets.toSeq == diamond.targets.toSeq)
  }

  test("fromEdges validates vertex range") {
    intercept[IllegalArgumentException](ProbGraph.fromEdges(2, Seq((0, 2, 1.0))))
  }

  test("fromEdges validates probability range") {
    intercept[IllegalArgumentException](ProbGraph.fromEdges(2, Seq((0, 1, 1.5))))
  }

  test("fromArrays builds the first m edges, keeping their order within a source") {
    val src = Array(2, 0, 2, 0, 1, 9)
    val dst = Array(0, 2, 1, 1, 2, 9)
    val probs = Array(0.1, 0.2, 0.3, 0.4, 0.5, 9.0)
    val g = ProbGraph.fromArrays(3, 5, src, dst, probs)
    assert(g.edgeTriples == Seq((0, 2, 0.2), (0, 1, 0.4), (1, 2, 0.5), (2, 0, 0.1), (2, 1, 0.3)))
    assert(g.offsets.toSeq == Seq(0, 2, 3, 5))
    assert(ProbGraph.fromArrays(3, 0, src, dst, probs).m == 0)
  }

  test("fromArrays rejects an out-of-range vertex, a probability outside [0, 1], NaN and short arrays") {
    val ok = Array(0, 1)
    val p = Array(0.5, 0.5)
    def reject(n: Int, m: Int, src: Array[Int], dst: Array[Int], probs: Array[Double], msg: String): Unit = {
      val e = intercept[IllegalArgumentException](ProbGraph.fromArrays(n, m, src, dst, probs))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
    reject(2, 2, Array(0, 2), ok, p, "edge (2,1) out of range n=2")
    reject(2, 2, ok, Array(-1, 0), p, "edge (0,-1) out of range n=2")
    for (bad <- Seq(1.5, -0.1, Double.NaN, Double.PositiveInfinity))
      reject(2, 2, ok, ok, Array(0.5, bad), s"probability $bad outside [0,1] on (1,1)")
    reject(2, 3, ok, Array(0, 1, 0), Array(0.5, 0.5, 0.5), "3 edges but src/dst/probs hold 2/3/3")
    reject(2, 3, Array(0, 1, 0), ok, Array(0.5, 0.5, 0.5), "3 edges but src/dst/probs hold 3/2/3")
    reject(2, 3, Array(0, 1, 0), Array(0, 1, 0), p, "3 edges but src/dst/probs hold 3/3/2")
    reject(2, -1, ok, ok, p, "-1 edges")
  }

  test("trivalency and weighted cascade equal their mapProbs forms on random graphs") {
    val rnd = new scala.util.Random(4)
    for (_ <- 1 to 30) {
      val n = 1 + rnd.nextInt(40)
      val g = ProbGraph.fromEdges(n, Seq.fill(rnd.nextInt(200))((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble())))
      val seed = rnd.nextLong()
      assert(PropModels.trivalency(g, seed).probs.toSeq == BoxedGraphs.trivalency(g, seed).probs.toSeq)
      assert(PropModels.weightedCascade(g).probs.toSeq == BoxedGraphs.weightedCascade(g).probs.toSeq)
    }
  }

  test("toDF rows are the edge triples") {
    val g = diamond
    val df = g.toDF(spark)
    assert(df.columns.toSeq == Seq("src", "dst", "p"))
    val rows = df.collect().map(r => (r.getInt(0), r.getInt(1), r.getDouble(2)))
    assert(rows.toSeq == g.edgeTriples)
  }

  test("parallel edges are preserved") {
    val g = ProbGraph.fromEdges(2, Seq((0, 1, 0.5), (0, 1, 0.5)))
    assert(g.m == 2)
    assert(g.outDegree(0) == 2)
  }

  test("out-degree DataFrame aggregation matches DuckDB oracle") {
    val g = ToyGraph.graph
    val edges = g.toDF(spark)
    val sparkDeg = edges.groupBy(edges("src").as("vertex")).count().withColumnRenamed("count", "cnt")
    Oracle.assertEquivalent(
      sparkDeg,
      "SELECT src AS vertex, COUNT(*) AS cnt FROM edges GROUP BY src",
      "edges" -> edges)
  }

  test("in-degree DataFrame aggregation matches DuckDB oracle") {
    val g = ToyGraph.graph
    val edges = g.toDF(spark)
    val sparkDeg = edges.groupBy(edges("dst").as("vertex")).count().withColumnRenamed("count", "cnt")
    Oracle.assertEquivalent(
      sparkDeg,
      "SELECT dst AS vertex, COUNT(*) AS cnt FROM edges GROUP BY dst",
      "edges" -> edges)
  }

  test("CSR offsets are monotone and bounded on random graphs") {
    val rnd = new scala.util.Random(1)
    for (_ <- 1 to 20) {
      val n = 2 + rnd.nextInt(30)
      val edges = Seq.fill(rnd.nextInt(60))((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      val g = ProbGraph.fromEdges(n, edges)
      assert(g.offsets.head == 0 && g.offsets.last == g.m)
      assert(g.offsets.sliding(2).forall(w => w(0) <= w(1)))
      assert((0 until n).map(g.outDegree).sum == g.m)
      assert(g.inDegrees.sum == g.m)
    }
  }
}
