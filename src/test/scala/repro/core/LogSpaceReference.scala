package repro.core

/** The log-space expression-error kernel that `ExpressionError.auto`
  * replaced, kept as a test reference: the same ±12σ windows and Alg. 2
  * prefix-sum sweep, but every pmf entry is `exp(logPmf(mu, k))`.
  *
  * [[logPoisPmf]] (Lanczos log-gamma) is the form the kernel used; its
  * absolute error grows like ulp(k·log mu), about 2e-10 at mu = 1e5.
  * [[saddleLogPmf]] (Loader's saddle-point form) stays near 1e-15 there,
  * so it is the reference for large means.
  */
object LogSpaceReference {

  /** Lanczos log-gamma (g=7, n=9); |err| < 1e-13 for x > 0. */
  def lgamma(x: Double): Double = {
    val g = 7.0
    val c = Array(
      0.99999999999980993, 676.5203681218851, -1259.1392167224028,
      771.32342877765313, -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5) {
      math.log(math.Pi / math.sin(math.Pi * x)) - lgamma(1.0 - x)
    } else {
      val xx = x - 1.0
      var a = c(0)
      val t = xx + g + 0.5
      var i = 1
      while (i < 9) { a += c(i) / (xx + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (xx + 0.5) * math.log(t) - t + math.log(a)
    }
  }

  /** log Pois(mu) pmf at k. */
  def logPoisPmf(mu: Double, k: Long): Double =
    -mu + k * math.log(mu) - lgamma(k + 1.0)

  /** log k! − log(√(2πk)·(k/e)^k): summed logs below 20, Stirling series above. */
  private def stirlerr(k: Long): Double =
    if (k < 20) (1L to k).map(i => math.log(i.toDouble)).sum - (k + 0.5) * math.log(k.toDouble) + k -
      0.5 * math.log(2 * math.Pi)
    else {
      val kk = k.toDouble * k
      (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - 1.0 / 1680 / kk) / kk) / kk) / k
    }

  /** k·log(k/mu) + mu − k without cancellation: a series in (k−mu)/(k+mu) near mu. */
  private def bd0(k: Double, mu: Double): Double =
    if (math.abs(k - mu) >= 0.1 * (k + mu)) k * math.log(k / mu) + mu - k
    else {
      val v = (k - mu) / (k + mu)
      val v2 = v * v
      var s = (k - mu) * v
      var ej = 2 * k * v
      var j = 1
      var prev = Double.NaN
      while (s != prev) { prev = s; ej *= v2; s += ej / (2 * j + 1); j += 1 }
      s
    }

  /** log Pois(mu) pmf at k in Loader's saddle-point form. */
  def saddleLogPmf(mu: Double, k: Long): Double =
    if (k == 0) -mu
    else -stirlerr(k) - bd0(k.toDouble, mu) - 0.5 * math.log(2 * math.Pi * k)

  /** The replaced kernel: `ExpressionError.auto` with every pmf entry from `logPmf`. */
  def auto(a: Double, b: Double, m: Int, logPmf: (Double, Long) => Double = logPoisPmf): Double = {
    require(m >= 1 && a >= 0 && b >= 0)
    if (m == 1) return 0.0
    if (a == 0.0) return b / m
    val Z = 12.0
    val aHi = math.ceil(a + Z * math.sqrt(a + 1) + 10).toLong
    val bLo = if (b == 0.0) 0L else math.max(0L, math.floor(b - Z * math.sqrt(b + 1) - 10).toLong)
    val bHi = if (b == 0.0) 0L else math.ceil(b + Z * math.sqrt(b + 1) + 10).toLong
    val len = (bHi - bLo + 1).toInt
    val pb = new Array[Double](len)
    var i = 0
    var c0Tot = 0.0
    var c1Tot = 0.0
    while (i < len) {
      val k = bLo + i
      pb(i) = if (b == 0.0) { if (k == 0) 1.0 else 0.0 } else math.exp(logPmf(b, k))
      c0Tot += pb(i); c1Tot += k * pb(i)
      i += 1
    }
    var u = bLo
    var c0 = 0.0
    var c1 = 0.0
    var e = 0.0
    var kh = 0L
    while (kh <= aHi) {
      val t = (m - 1).toLong * kh
      while (u < t && u <= bHi) {
        val p = pb((u - bLo).toInt)
        c0 += p; c1 += u * p
        u += 1
      }
      val pa = math.exp(logPmf(a, kh))
      if (pa > 0) {
        val cc0 = if (t > bHi) c0Tot else c0
        val cc1 = if (t > bHi) c1Tot else c1
        e += pa * ((m - 1).toDouble * kh * (2 * cc0 - c0Tot) - (2 * cc1 - c1Tot))
      }
      kh += 1
    }
    e / m
  }
}
