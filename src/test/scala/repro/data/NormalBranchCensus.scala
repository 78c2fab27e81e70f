package repro.data

import repro.core.Rng

/** How much of a city's volume `Rng.poisson` draws from its rounded-normal
  * branch: the (day, slot, generation cell) triples whose mean μ reaches
  * [[Rng.NormalFrom]], and their share of the expected events. Plain loops
  * over [[CityConfig]], no Spark and no sampling.
  *
  * Run: `sbt "Test/runMain repro.data.NormalBranchCensus"`
  */
object NormalBranchCensus {

  /** @param triples (day, slot, cell) triples with μ ≥ Rng.NormalFrom
    * @param of      all (day, slot, cell) triples
    * @param share   their share of the expected events Σ μ
    * @param maxMu   the largest μ of any triple
    */
  final case class Census(triples: Long, of: Long, share: Double, maxMu: Double)

  def apply(city: CityConfig): Census = {
    var n = 0L
    var normalMass, mass, maxMu = 0.0
    for (day <- 0 until city.days) {
      val shares = city.sharesForDay(day)
      for (slot <- 0 until CityConfig.Slots) {
        val slotMean = city.dailyOrders * city.slotProfile(slot)
        var cell = 0
        while (cell < shares.length) {
          val mu = slotMean * shares(cell)
          mass += mu
          if (mu >= Rng.NormalFrom) { n += 1; normalMass += mu }
          maxMu = math.max(maxMu, mu)
          cell += 1
        }
      }
    }
    Census(n, city.days.toLong * CityConfig.Slots * city.genSide * city.genSide, normalMass / mass, maxMu)
  }

  /** The bench cities at full volume, and at the volumes of the
    * benchmark's workloads (NYC at 1/50, Xi'an at 1/20).
    */
  val volumes: Seq[(CityConfig, Double)] =
    CityConfig.benchCities.map(_ -> 1.0) ++ Seq(CityConfig.nyc -> 0.02, CityConfig.xian -> 0.05)

  def main(args: Array[String]): Unit = {
    println("city | volume | triples with μ ≥ 64 | of | share of expected events | max μ")
    for ((city, scale) <- volumes) {
      val c = apply(city.copy(dailyOrders = city.dailyOrders * scale))
      println(f"${city.name} | $scale%.2f | ${c.triples}%,d | ${c.of}%,d | ${c.share}%.3e | ${c.maxMu}%.2f")
    }
  }
}
