package repro

import repro.exp.Datasets
import repro.graph.{ProbGraph, PropModels, SeedReduction, SocialGraphGen}

class ExecutionSpec extends SparkSpec {

  /** The reduced graph AG/GR run on: `g` with Table VII's ten random seeds. */
  private def reducedWithSeeds(g: ProbGraph, seed: Long): ProbGraph =
    SeedReduction.reduce(g, Datasets.randomSeeds(g, 10, seed)).graph

  test("an AG round on the Wiki-Vote substitute (theta = 100) runs on the driver") {
    val spec = Datasets.byName("Wiki-Vote")
    val rg = reducedWithSeeds(Datasets.withModel(spec.graph, "TR", spec.seed), 77L + spec.seed)
    assert(Execution.cluster(spark, rg, 100).isEmpty)
  }

  test("an AG round on a sparse 100k-vertex graph (theta = 100) fans out over Spark") {
    val g = PropModels.trivalency(SocialGraphGen.powerLaw(100000, 150000, directed = false, 21L), 21L)
    assert(Execution.cluster(spark, reducedWithSeeds(g, 98L), 100).contains(spark))
  }

  test("the decision is a threshold on traversals x (n + m)") {
    val g = ProbGraph.fromEdges(4, Seq((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5))) // n + m = 8
    val atThreshold = Execution.SparkMinWork / 8
    assert(Execution.cluster(spark, g, atThreshold).contains(spark))
    assert(Execution.cluster(spark, g, atThreshold - 1).isEmpty)
    assert(Execution.cluster(spark, g, 1).isEmpty)
  }
}
