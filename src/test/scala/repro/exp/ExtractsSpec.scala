package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{ProbGraph, SocialGraphGen}
import scala.collection.mutable
import scala.util.Random

class ExtractsSpec extends AnyFunSuite {

  private val base = SocialGraphGen.powerLaw(300, 1500, directed = true, seed = 3L)

  test("extract reaches at least the target size") {
    val (sub, _) = Extracts.neighborhoodExtract(base, 30, 1L)
    assert(sub.n >= 30)
  }

  test("extract is deterministic in the seed") {
    val (a, _) = Extracts.neighborhoodExtract(base, 30, 2L)
    val (b, _) = Extracts.neighborhoodExtract(base, 30, 2L)
    assert(a.edgeTriples == b.edgeTriples)
  }

  test("id map is a bijection onto 0 until size") {
    val (sub, map) = Extracts.neighborhoodExtract(base, 25, 3L)
    assert(map.values.toSet == (0 until sub.n).toSet)
    assert(map.keys.forall(k => k >= 0 && k < base.n))
  }

  test("extract contains exactly the induced edges") {
    val (sub, map) = Extracts.neighborhoodExtract(base, 25, 4L)
    val chosen = map.keySet
    val expected = base.edgeTriples.collect {
      case (u, v, p) if chosen(u) && chosen(v) => (map(u), map(v), p)
    }.toSet
    assert(sub.edgeTriples.toSet == expected)
  }

  test("an extract larger than the graph is rejected") {
    val e = intercept[IllegalArgumentException](Extracts.neighborhoodExtract(base, base.n + 1, 1L))
    assert(e.getMessage.contains(s"cannot extract ${base.n + 1} of ${base.n} vertices"))
    assert(Extracts.neighborhoodExtract(base, base.n, 1L)._1.n == base.n)
  }

  test("edge probabilities are inherited") {
    val tr = repro.graph.PropModels.trivalency(base, 5L)
    val (sub, _) = Extracts.neighborhoodExtract(tr, 25, 5L)
    assert(sub.probs.forall(p => p == 0.1 || p == 0.01 || p == 0.001))
  }

  test("different seeds give different extracts") {
    val (a, _) = Extracts.neighborhoodExtract(base, 25, 6L)
    val (b, _) = Extracts.neighborhoodExtract(base, 25, 7L)
    assert(a.edgeTriples != b.edgeTriples)
  }

  test("extracts equal the definition that reads in-neighbours off the reversed graph") {
    // The reversed graph's row v lists v's in-neighbours by ascending
    // source, in CSR order within a source.
    def viaReverse(g: ProbGraph, targetN: Int, seed: Long): (Seq[(Int, Int, Double)], Map[Int, Int]) = {
      val rnd = new Random(seed)
      val rev = ProbGraph.fromEdges(g.n, g.edgeTriples.map { case (u, v, p) => (v, u, p) })
      val chosen = mutable.LinkedHashSet.empty[Int]
      val queue = mutable.ArrayBuffer.empty[Int]
      def absorb(v: Int): Unit = if (chosen.add(v)) queue += v
      absorb(rnd.nextInt(g.n))
      while (chosen.size < targetN) {
        val pivot =
          if (queue.nonEmpty) queue.remove(rnd.nextInt(queue.size))
          else { val v = rnd.nextInt(g.n); absorb(v); v }
        g.outNeighbors(pivot).foreach(absorb)
        rev.outNeighbors(pivot).foreach(absorb)
      }
      val map = chosen.toIndexedSeq.zipWithIndex.toMap
      val edges = g.edgeTriples.collect { case (u, v, p) if map.contains(u) && map.contains(v) => (map(u), map(v), p) }
      (ProbGraph.fromEdges(map.size, edges).edgeTriples, map)
    }
    // The Table V/VI extracts (EmailCore substitute, seeds 43 to 45) and
    // smaller ones on a sparser graph.
    val emailCore = Datasets.byName("EmailCore")
    val tr = Datasets.withModel(emailCore.graph, "TR", emailCore.seed)
    for ((g, targetN, seeds) <- Seq((tr, 30, 43L to 45L), (base, 10, 1L to 20L), (base, 30, 1L to 20L)); seed <- seeds) {
      val (sub, map) = Extracts.neighborhoodExtract(g, targetN, seed)
      val (edges, wantMap) = viaReverse(g, targetN, seed)
      assert(map == wantMap && sub.edgeTriples == edges, s"n = ${g.n}, target $targetN, seed $seed")
    }
  }
}
