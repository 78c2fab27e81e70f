package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, least, lit, sum}

/** Expression error of a HGrid (paper §III-B).
  *
  * With λ_ij ~ Pois(a) (a = α_ij) and the rest of the MGrid
  * λ_{i,≠j} ~ Pois(b) (b = Σ_{g≠j} α_ig), the expression error is
  *
  *   E_e = E | λ_ij − (λ_ij + λ_{i,≠j})/m |
  *       = (1/m) Σ_{k_h} Σ_{k_m} |(m−1)k_h − k_m| · P_a(k_h) · P_b(k_m)
  *
  * (Eq. 7). Three implementations:
  *  - [[naive]]  — paper Algorithm 1, O(mK²) total work;
  *  - [[fast]]   — paper Algorithm 2, O(mK), via incremental prefix sums
  *                 of the Pois(b) mass (Eq. 16–19);
  *  - [[auto]]   — production variant: same prefix-sum scheme but
  *                 iterating only the ±12σ windows of both Poissons, each
  *                 pmf built outward from its mode by the ratio recurrence.
  *                 A literal double-precision Alg. 1/2 computes e^{−b} = 0
  *                 for b ≳ 745 (a busy MGrid at small n) and silently
  *                 returns 0; [[auto]] does not.
  * [[mgridTotal]] sums [[auto]] over one MGrid, once per distinct α.
  */
object ExpressionError {

  /** Algorithm 1 (verbatim intent): double sum truncated at k_h ≤ K,
    * k_m ≤ (m−1)K, pmfs by the O(1) recurrence of Eq. 14.
    */
  def naive(a: Double, b: Double, m: Int, K: Int): Double = {
    require(m >= 1 && K >= 0 && a >= 0 && b >= 0)
    if (m == 1) return 0.0
    val kmMax = (m - 1) * K
    var e = 0.0
    var p1 = math.exp(-a) // P_a(k_h)
    var kh = 0
    while (kh <= K) {
      var p2 = math.exp(-b) // P_b(k_m)
      var km = 0
      while (km <= kmMax) {
        e += math.abs(((m - 1).toDouble * kh - km) / m) * p1 * p2
        p2 = p2 * b / (km + 1)
        km += 1
      }
      p1 = p1 * a / (kh + 1)
      kh += 1
    }
    e
  }

  /** Algorithm 2: O(mK). Rewrites the |·| via the sign indicator at the
    * threshold t = (m−1)k_h (Eq. 16) so each k_h needs only the prefix
    * sums C0(t−1) = Σ_{k_m<t} P_b and C1(t−1) = Σ_{k_m<t} k_m P_b, which
    * advance monotonically with k_h (Eq. 19):
    *
    *   E_e ≈ (1/m) Σ_{k_h≤K} P_a(k_h) ·
    *         [ (m−1)k_h (2C0(t−1) − C0(Km)) − (2C1(t−1) − C1(Km)) ]
    */
  def fast(a: Double, b: Double, m: Int, K: Int): Double = {
    require(m >= 1 && K >= 0 && a >= 0 && b >= 0)
    if (m == 1) return 0.0
    val kmMax = (m - 1) * K
    // totals C0(Km), C1(Km)
    var p2 = math.exp(-b)
    var c0Tot = 0.0
    var c1Tot = 0.0
    var km = 0
    while (km <= kmMax) {
      c0Tot += p2; c1Tot += km * p2
      p2 = p2 * b / (km + 1)
      km += 1
    }
    // sweep k_h, advancing the prefix pointer u over k_m
    var p1 = math.exp(-a)
    var pU = math.exp(-b) // P_b(u)
    var u = 0
    var c0 = 0.0
    var c1 = 0.0
    var e = 0.0
    var kh = 0
    while (kh <= K) {
      val t = (m - 1).toLong * kh
      while (u < t && u <= kmMax) {
        c0 += pU; c1 += u * pU
        pU = pU * b / (u + 1)
        u += 1
      }
      e += p1 * ((m - 1).toDouble * kh * (2 * c0 - c0Tot) - (2 * c1 - c1Tot))
      p1 = p1 * a / (kh + 1)
      kh += 1
    }
    e / m
  }

  private final val Z = 12.0 // window half-width in σ (+10), tail mass < 1e-26

  /** The ±Zσ window [lo, hi] of Pois(mu); [0, 0] for mu = 0. */
  private[core] def windowBounds(mu: Double): (Long, Long) =
    if (mu == 0.0) (0L, 0L)
    else (math.max(0L, math.floor(mu - Z * math.sqrt(mu + 1) - 10).toLong),
          math.ceil(mu + Z * math.sqrt(mu + 1) + 10).toLong)

  /** Pois(mu) pmf on a window [lo, hi] that holds floor(mu) and all but
    * < 1e-26 of the mass: weight 1 at the mode floor(mu), extended outward
    * by the ratio recurrences p(k+1) = p(k)·mu/(k+1) and
    * p(k−1) = p(k)·k/mu, then divided by the window sum. No exp or lgamma,
    * so nothing underflows near the mode however large mu is.
    */
  private[core] def poisWindow(mu: Double, lo: Long, hi: Long): Array[Double] = {
    val p = new Array[Double]((hi - lo + 1).toInt)
    val mode = (math.floor(mu).toLong - lo).toInt
    p(mode) = 1.0
    var i = mode
    while (i + 1 < p.length) { p(i + 1) = p(i) * mu / (lo + i + 1); i += 1 }
    i = mode
    while (i > 0) { p(i - 1) = p(i) * (lo + i) / mu; i -= 1 }
    var s = 0.0
    i = 0
    while (i < p.length) { s += p(i); i += 1 }
    i = 0
    while (i < p.length) { p(i) /= s; i += 1 }
    p
  }

  /** Production expression error: Alg. 2's scheme over the ±Zσ windows of
    * both Poissons, each built by [[poisWindow]]. Truncation error < 1e-12
    * relative.
    */
  def auto(a: Double, b: Double, m: Int): Double = {
    require(m >= 1 && a >= 0 && b >= 0)
    if (m == 1) return 0.0
    if (a == 0.0) return b / m // exact: E|Y/m| = b/m for empty HGrid
    val (_, aHi) = windowBounds(a)
    val (bLo, bHi) = windowBounds(b)
    val pa = poisWindow(a, 0L, aHi)
    val pb = poisWindow(b, bLo, bHi)
    var i = 0
    var c0Tot = 0.0
    var c1Tot = 0.0
    while (i < pb.length) {
      c0Tot += pb(i); c1Tot += (bLo + i) * pb(i)
      i += 1
    }
    var u = bLo
    var c0 = 0.0
    var c1 = 0.0
    var e = 0.0
    var kh = 0
    while (kh < pa.length) {
      val t = (m - 1).toLong * kh
      while (u < t && u <= bHi) {
        val p = pb((u - bLo).toInt)
        c0 += p; c1 += u * p
        u += 1
      }
      val cc0 = if (t > bHi) c0Tot else c0
      val cc1 = if (t > bHi) c1Tot else c1
      e += pa(kh) * ((m - 1).toDouble * kh * (2 * cc0 - c0Tot) - (2 * cc1 - c1Tot))
      kh += 1
    }
    e / m
  }

  /** Total expression error of one MGrid with present-HGrid means
    * `alphas` (absent HGrids are implicit zeros): Σ_j E_e(α_j, A−α_j, m)
    * plus the exact A/m term for each of the (m − |alphas|) empty HGrids.
    * E_e depends on j only through α_j, so each distinct α (a count over
    * the window days, hence often repeated) is evaluated once and weighted
    * by its multiplicity.
    */
  def mgridTotal(alphas: Array[Double], m: Int): Double = {
    require(alphas.length <= m, s"${alphas.length} HGrid means for m=$m")
    val total = alphas.sum
    val sorted = alphas.clone()
    java.util.Arrays.sort(sorted)
    var e = 0.0
    var j = 0
    while (j < sorted.length) {
      var r = j + 1
      while (r < sorted.length && sorted(r) == sorted(j)) r += 1
      e += (r - j) * auto(sorted(j), total - sorted(j), m)
      j = r
    }
    e + (m - alphas.length) * (if (m == 1) 0.0 else total / m)
  }

  /** Distributed per-slot totals: Σ_i Σ_j E_e(i,j) for every time slot.
    * The Spark reference for `Evaluator.exprErrPerSlot`, which computes the
    * same totals from a dense α array in the JVM.
    *
    * @param alphaDf (slot, cx, cy, alpha) at the `spec.hSide` lattice,
    *                sparse (zero-α cells absent)
    * @return DataFrame (slot, exprErr)
    */
  def totalPerSlot(spark: SparkSession, alphaDf: DataFrame, spec: GridSpec): DataFrame = {
    import spark.implicits._
    val nSide = spec.nSide
    val hSide = spec.hSide
    val cellsPerM = spec.cellsPerM // small array, shipped in the closure
    val mcx = least(lit(nSide - 1), (col("cx") * nSide / hSide).cast("int"))
    val mcy = least(lit(nSide - 1), (col("cy") * nSide / hSide).cast("int"))
    alphaDf
      .select(
        col("slot").cast("int"),
        (mcx * nSide + mcy).cast("int").as("mgrid"),
        col("alpha").cast("double"))
      .as[(Int, Int, Double)]
      .groupByKey(r => (r._1, r._2))
      .mapGroups((key: (Int, Int), rows: Iterator[(Int, Int, Double)]) =>
        (key._1, mgridTotal(rows.map(_._3).toArray, cellsPerM(key._2))))
      .toDF("slot", "ee")
      .groupBy(col("slot"))
      .agg(sum(col("ee")).as("exprErr"))
  }

  /** Lemma III.1 upper bound on the truncated double sum:
    * (1 − 2/m)·α_ij + (Σ_g α_ig)/m.
    */
  def lemmaBound(a: Double, b: Double, m: Int): Double =
    (1.0 - 2.0 / m) * a + (a + b) / m
}
