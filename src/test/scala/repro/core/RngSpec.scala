package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropChecks

class RngSpec extends AnyFunSuite with PropChecks {

  test("mix64 is deterministic and key order-sensitive") {
    assert(Rng.mix64(42L) == Rng.mix64(42L))
    assert(Rng.key(1, 2, 3) == Rng.key(1, 2, 3))
    assert(Rng.key(1, 2, 3) != Rng.key(3, 2, 1))
    assert(Rng.key(1, 2) != Rng.key(1, 3))
  }

  test("property: key is the fold of extend, so a key prefix can be hoisted") {
    val gen = for { a <- Gen.long; b <- Gen.long; c <- Gen.long; d <- Gen.long } yield (a, b, c, d)
    checkProp(Prop.forAll(gen) { case (a, b, c, d) =>
      Rng.key(a, b, c, d) == Rng.extend(Rng.key(a, b, c), d) &&
        Rng.key(a) == Rng.extend(Rng.key(), a)
    })
    // pinned values: the fold must leave every key, and so every draw, as it was
    assert(Rng.key(1, 2, 3) == 823063392072716521L)
    assert(Rng.key(1001, 34, 47, 4095, 7777) == 7687385490123996914L)
  }

  test("uniform stays in [0,1) and differs across stream indices") {
    val k = Rng.key(7)
    val us = (0 until 1000).map(i => Rng.uniform(k, i))
    assert(us.forall(u => u >= 0.0 && u < 1.0))
    assert(us.distinct.size > 990)
  }

  test("uniform mean and variance match U(0,1)") {
    val k = Rng.key(13)
    val n = 200000
    val us = (0 until n).map(i => Rng.uniform(k, i))
    val mean = us.sum / n
    val varr = us.map(u => (u - mean) * (u - mean)).sum / n
    assert(math.abs(mean - 0.5) < 0.005, s"mean=$mean")
    assert(math.abs(varr - 1.0 / 12) < 0.005, s"var=$varr")
  }

  test("gaussian has mean ~0 and variance ~1") {
    val k = Rng.key(99)
    val n = 200000
    val gs = (0 until n).map(i => Rng.gaussian(k, i))
    val mean = gs.sum / n
    val varr = gs.map(g => (g - mean) * (g - mean)).sum / n
    assert(math.abs(mean) < 0.01, s"mean=$mean")
    assert(math.abs(varr - 1.0) < 0.02, s"var=$varr")
  }

  test("poisson(0) is 0 and poisson is deterministic per key") {
    assert(Rng.poisson(0.0, 123L) == 0)
    assert(Rng.poisson(-1.0, 123L) == 0)
    assert(Rng.poisson(3.3, 55L) == Rng.poisson(3.3, 55L))
  }

  test("poisson small-mu moments (Knuth branch)") {
    for (mu <- Seq(0.2, 1.0, 4.0, 20.0)) {
      val n = 100000
      val xs = (0 until n).map(i => Rng.poisson(mu, Rng.key(5, i)).toDouble)
      val mean = xs.sum / n
      val varr = xs.map(x => (x - mean) * (x - mean)).sum / n
      assert(math.abs(mean - mu) < 0.05 * mu + 0.02, s"mu=$mu mean=$mean")
      assert(math.abs(varr - mu) < 0.08 * mu + 0.05, s"mu=$mu var=$varr")
    }
  }

  test("poisson large-mu moments (normal-approximation branch)") {
    val mu = 150.0
    val n = 50000
    val xs = (0 until n).map(i => Rng.poisson(mu, Rng.key(6, i)).toDouble)
    val mean = xs.sum / n
    val varr = xs.map(x => (x - mean) * (x - mean)).sum / n
    assert(math.abs(mean - mu) < 0.02 * mu)
    assert(math.abs(varr - mu) < 0.05 * mu)
  }

  test("property: poisson never negative") {
    val gen = for { mu <- Gen.choose(0.0, 300.0); s <- Gen.long } yield (mu, s)
    checkProp(Prop.forAll(gen) { case (mu, s) => Rng.poisson(mu, s) >= 0 })
  }
}
