package repro.data

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.Rng

import scala.collection.mutable

/** One spatial event (taxi order): pickup at (x, y) ∈ [0,1)², trip length
  * `km`, fare in currency units.
  */
final case class Event(day: Int, slot: Int, x: Double, y: Double, km: Double, fare: Double)

/** Synthetic spatiotemporal event generator (substitutes the paper's taxi
  * trip datasets — DESIGN.md §3).
  *
  * For every (day, slot, generation cell) the event count is drawn from
  * Poisson(μ) with μ = dailyOrders · slotProfile(slot) · cellShare(cell) —
  * i.e. per-cell counts are exactly Poisson with a day-independent mean,
  * which is the distributional assumption of the paper's §III-B. Events
  * are uniformly jittered inside their generation cell, so the
  * homogeneity assumption holds at N = genSide² by construction.
  *
  * Fully deterministic in the city seed (hash RNG keyed by seed, day,
  * slot, cell and event).
  */
object EventGen {

  val FareBase = 2.5
  val FarePerKm = 1.2

  /** All events of `city` as a Dataset — cache this; everything downstream
    * (counts at any lattice, α, model training) derives from it.
    *
    * One row per (day, slot); each row draws that slot's events in a loop
    * over the generation cells. Every draw is keyed by (seed, day, slot,
    * cell[, event]), so the events do not depend on the partitioning.
    */
  def events(spark: SparkSession, city: CityConfig): Dataset[Event] = {
    import spark.implicits._
    val slots = CityConfig.Slots
    spark
      .range(city.days.toLong * slots)
      .mapPartitions { ids =>
        // a partition holds consecutive ids, so each day's spatial shares
        // (hotspots jitter daily) are computed once per partition
        var day = -1
        var shares: Array[Double] = null
        ids.flatMap { boxedId =>
          val id: Long = boxedId
          val d = (id / slots).toInt
          if (d != day) { day = d; shares = city.sharesForDay(d) }
          slotEvents(city, d, (id % slots).toInt, shares)
        }
      }
  }

  /** The events of one (day, slot): per generation cell, a Poisson count
    * with mean dailyOrders · slotProfile(slot) · shares(cell), then each
    * event's jitter, trip length and fare.
    */
  private def slotEvents(city: CityConfig, day: Int, slot: Int, shares: Array[Double]): Iterator[Event] = {
    val g = city.genSide
    val cells = g * g
    val lm = city.logKmMean
    val ls = city.logKmSigma
    val slotMean = city.dailyOrders * city.slotProfile(slot)
    val slotKey = Rng.key(city.seed, day, slot)
    val out = mutable.ArrayBuffer.empty[Event]
    var cell = 0
    while (cell < cells) {
      val k = Rng.extend(slotKey, cell)
      val cnt = Rng.poisson(slotMean * shares(cell), k)
      val cx = cell / g
      val cy = cell % g
      var e = 0
      while (e < cnt) {
        val ek = Rng.extend(k, 7777L + e)
        val x = (cx + Rng.uniform(ek, 0)) / g
        val y = (cy + Rng.uniform(ek, 1)) / g
        val km = math.min(60.0, math.max(0.4, math.exp(lm + ls * Rng.gaussian(ek, 2))))
        out += Event(day, slot, x, y, km, FareBase + FarePerKm * km)
        e += 1
      }
      cell += 1
    }
    out.iterator
  }

  def eventsDf(spark: SparkSession, city: CityConfig): DataFrame =
    events(spark, city).toDF()
}
