package repro.util

import org.scalatest.funsuite.AnyFunSuite

class RngSpec extends AnyFunSuite {

  test("splitmix64 is deterministic") {
    assert(Rng.splitmix64(42L) == Rng.splitmix64(42L))
    assert(Rng.splitmix64(0L) != Rng.splitmix64(1L))
  }

  test("splitmix64 of sequential inputs looks decorrelated") {
    val xs = (0L until 1000L).map(Rng.splitmix64)
    assert(xs.distinct.size == 1000)
  }

  test("toUnitDouble lands in [0,1)") {
    for (i <- 0L until 10000L) {
      val d = Rng.toUnitDouble(Rng.splitmix64(i))
      assert(d >= 0.0 && d < 1.0)
    }
  }

  test("toUnitDouble mean is about one half") {
    val n = 100000
    val mean = (0L until n.toLong).map(i => Rng.toUnitDouble(Rng.splitmix64(i))).sum / n
    assert(math.abs(mean - 0.5) < 0.01, s"mean=$mean")
  }

  test("sampleSeed differs per sample id") {
    val seeds = (0L until 1000L).map(Rng.sampleSeed(99L, _))
    assert(seeds.distinct.size == 1000)
  }

  test("edgeKeep always keeps probability-1 edges") {
    for (s <- 0L until 100L; e <- 0 until 20)
      assert(Rng.edgeKeep(s, e, 1.0))
  }

  test("edgeKeep never keeps probability-0 edges") {
    for (s <- 0L until 100L; e <- 0 until 20)
      assert(!Rng.edgeKeep(s, e, 0.0))
  }

  test("edgeKeep frequency matches the edge probability") {
    for (p <- Seq(0.1, 0.5, 0.9)) {
      val n = 20000
      val hits = (0L until n.toLong).count(s => Rng.edgeKeep(Rng.sampleSeed(7L, s), 3, p))
      val freq = hits.toDouble / n
      assert(math.abs(freq - p) < 0.015, s"p=$p freq=$freq")
    }
  }

  test("edgeKeep is a pure function of (sampleSeed, edge, p)") {
    val a = (0 until 50).map(e => Rng.edgeKeep(123L, e, 0.3))
    val b = (0 until 50).map(e => Rng.edgeKeep(123L, e, 0.3))
    assert(a == b)
  }

  test("edge decisions are independent across edges within a sample") {
    // correlation of keep-decisions of two edges over many samples ≈ p^2
    val n = 20000
    var both = 0
    for (s <- 0L until n.toLong) {
      val seed = Rng.sampleSeed(5L, s)
      if (Rng.edgeKeep(seed, 0, 0.5) && Rng.edgeKeep(seed, 1, 0.5)) both += 1
    }
    val freq = both.toDouble / n
    assert(math.abs(freq - 0.25) < 0.02, s"joint=$freq")
  }

  test("edgeUniform differs across edges for the same sample") {
    val us = (0 until 1000).map(Rng.edgeUniform(42L, _))
    assert(us.distinct.size == 1000)
  }

  test("cutKeep decides every coin as edgeKeep does, prefix ties included") {
    // The cases that sit on the rule's edges: p at the hash's own 53-bit
    // value K and one ulp either side, p at its 32-bit prefix H (a cut tie)
    // and at the next prefix and just below it, and common probabilities.
    val rnd = new scala.util.Random(41)
    val edges = 1 << 12
    val cuts = new Array[Int](edges)
    val probs = new Array[Double](edges)
    var ties = 0
    for (_ <- 0 until 50000) {
      val seed = rnd.nextLong()
      val e = rnd.nextInt(edges)
      val k = (Rng.edgeUniform(seed, e) * 9007199254740992.0).toLong // K = hash >>> 11, exactly
      val h = k >>> 21
      val ps = Seq(k / 9007199254740992.0, h / 4294967296.0, (h + 1) / 4294967296.0)
        .flatMap(p => Seq(p, math.nextUp(p), math.nextDown(p))) ++ Seq(0.0, 1.0, 0.1, 0.01, 0.001)
      for (p <- ps if p >= 0.0 && p <= 1.0) {
        cuts(e) = Rng.cut(p)
        probs(e) = p
        if ((cuts(e) & 0xffffffffL) == h) ties += 1
        assert(Rng.cutKeep(seed, e, cuts, probs) == Rng.edgeKeep(seed, e, p), s"seed=$seed e=$e p=$p")
      }
    }
    assert(ties >= 50000, s"only $ties cut ties")
  }

  test("cut is the unsigned floor of p times 2^32, all ones from p = 1") {
    assert(Rng.cut(0.0) == 0)
    assert(Rng.cut(math.pow(2, -32)) == 1)
    assert(Rng.cut(math.nextDown(math.pow(2, -32))) == 0)
    assert(Rng.cut(0.5) == Int.MinValue)
    assert(Rng.cut(math.nextDown(1.0)) == -1)
    assert(Rng.cut(1.0) == -1)
  }

  test("shuffle replays scala.util.Random.shuffle on an Int array") {
    for (len <- Seq(0, 1, 2, 3, 1000); seed <- 1L to 5L) {
      val want = new scala.util.Random(seed).shuffle((0 until len).toVector)
      val rnd = new scala.util.Random(seed)
      assert(Rng.shuffle(rnd, Array.range(0, len)).toSeq == want, s"length $len, seed $seed")
      // The same draws were consumed: the streams continue alike.
      assert(rnd.nextLong() == { val r = new scala.util.Random(seed); r.shuffle((0 until len).toVector); r.nextLong() })
    }
  }
}
