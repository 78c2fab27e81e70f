package repro.data

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Rng

/** The replaced per-cell event generator, kept as the reference that
  * [[EventGen.events]] must reproduce: one Spark row per (day, slot,
  * generation cell), each drawing its Poisson count and then its events
  * with the full `Rng.key(seed, day, slot, cell[, 7777 + e])`.
  */
object EventGenReference {
  import EventGen.{FareBase, FarePerKm}

  def events(spark: SparkSession, city: CityConfig): Dataset[Event] = {
    import spark.implicits._
    val g = city.genSide
    val slots = CityConfig.Slots
    val profile = city.slotProfile
    val daily = city.dailyOrders
    val seed = city.seed
    val lm = city.logKmMean
    val ls = city.logKmSigma
    val cells = g.toLong * g

    spark
      .range(city.days.toLong * slots * cells)
      .mapPartitions { iter =>
        // per-day spatial shares (hotspots jitter daily); cached per task
        val shareCache = scala.collection.mutable.Map.empty[Int, Array[Double]]
        iter.flatMap { boxedId =>
          val id: Long = boxedId
          val cell = (id % cells).toInt
          val slot = ((id / cells) % slots).toInt
          val day = (id / (cells * slots)).toInt
          val shares = shareCache.getOrElseUpdate(day, city.sharesForDay(day))
          val mu = daily * profile(slot) * shares(cell)
          val k = Rng.key(seed, day, slot, cell)
          val cnt = Rng.poisson(mu, k)
          if (cnt == 0) Iterator.empty
          else {
            val cx = cell / g
            val cy = cell % g
            Iterator.tabulate(cnt) { e =>
              val ek = Rng.key(seed, day, slot, cell, 7777L + e)
              val x = (cx + Rng.uniform(ek, 0)) / g
              val y = (cy + Rng.uniform(ek, 1)) / g
              val km = math.min(60.0, math.max(0.4, math.exp(lm + ls * Rng.gaussian(ek, 2))))
              Event(day, slot, x, y, km, FareBase + FarePerKm * km)
            }
          }
        }
      }
  }
}
