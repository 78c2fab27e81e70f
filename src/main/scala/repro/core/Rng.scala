package repro.core

/** Deterministic, seedable randomness for Spark pipelines.
  *
  * Spark re-executes partitions on retry, so any randomness used inside a
  * UDF/map must be a pure function of row values. Everything here is
  * derived from a 64-bit key via SplitMix64, so a row like
  * ``(seed, day, slot, cell)`` always draws the same Poisson count and the
  * same jitter, on any executor, in any run.
  */
object Rng {

  /** SplitMix64 finalizer: a high-quality 64-bit mix. */
  def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Combine key parts into one 64-bit seed (order-sensitive): the left
    * fold of [[extend]] from a fixed constant.
    */
  def key(parts: Long*): Long = parts.foldLeft(0x632be59bd9b4e019L)(extend)

  /** Append one part to a key: `key(p1, …, pk, q) == extend(key(p1, …, pk), q)`,
    * so a loop over the last part can compute the shared prefix once.
    */
  def extend(prefix: Long, part: Long): Long = mix64(prefix ^ part)

  /** Uniform double in [0, 1) from a key, stream index `i` for multiple draws. */
  def uniform(k: Long, i: Long = 0): Double =
    (mix64(k ^ (i * 0x9e3779b97f4a7c15L)) >>> 11) * (1.0 / (1L << 53))

  /** Standard normal via Box–Muller on two keyed uniforms. */
  def gaussian(k: Long, i: Long = 0): Double = {
    val u1 = math.max(uniform(k, 2 * i), 1e-300)
    val u2 = uniform(k, 2 * i + 1)
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  /** Smallest mean that [[poisson]] draws from its normal approximation. */
  val NormalFrom = 64.0

  /** Poisson(mu) sample keyed by `k`.
    *
    * Knuth's product method below mu=64 (exact); above that a rounded
    * normal approximation, whose relative moment error is < 1% — fine for
    * a data generator (the analysis layer never samples, it integrates).
    */
  def poisson(mu: Double, k: Long): Int = {
    if (mu <= 0.0) 0
    else if (mu < NormalFrom) {
      val l = math.exp(-mu)
      var p = 1.0
      var n = 0
      var i = 0L
      while ({ p *= uniform(k, i); i += 1; p > l }) n += 1
      n
    } else {
      math.max(0L, math.round(mu + math.sqrt(mu) * gaussian(k))).toInt
    }
  }
}
