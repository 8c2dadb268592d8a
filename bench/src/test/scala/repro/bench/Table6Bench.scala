package repro.bench

import repro.SparkSpec
import repro.core.Runner
import repro.jobs.{Table6Job, TableConfig}

/** Reproduces Table 6 (Appendix B): comparison on T1 (Movie, GBM regression)
  * and T3 (Avocado, linear regression). Shape expectations: MODis wins
  * regression accuracy / MSE, SkSFM wins training time at an accuracy cost.
  */
class Table6Bench extends SparkSpec {

  private val sf = sys.env.getOrElse("BENCH_SF", "0.1").toDouble
  private val cfg = TableConfig.Tabular

  private lazy val movie = Runner.tabularComparison(spark, "movie", sf, cfg)
  private lazy val avocado = Runner.tabularComparison(spark, "avocado", sf, cfg)

  test("Table 6 / T1 Movie: print and sanity") {
    println(Runner.formatTable("Table 6 / T1: Movie (GBM regression)",
      Table6Job.movieMetrics, movie))
    assert(movie.size == 10)
  }

  test("Table 6 / T1: best MODis regression accuracy beats Original") {
    val orig = movie.head.raw("acc")
    val best = movie.drop(6).map(_.raw("acc")).max
    assert(best >= orig - 0.02, s"modis=$best original=$orig")
  }

  test("Table 6 / T3 Avocado: print and sanity") {
    println(Runner.formatTable("Table 6 / T3: Avocado (linear regression)",
      Table6Job.avocadoMetrics, avocado))
    assert(avocado.size == 10)
  }

  test("Table 6 / T3: best MODis MSE beats Original") {
    val orig = avocado.head.raw("mse")
    val best = avocado.drop(6).map(_.raw("mse")).min
    assert(best <= orig * 1.05, s"modis=$best original=$orig")
  }

  test("Table 6 / T3: MODis reduces rows relative to the universal table") {
    val anySmaller = avocado.drop(6).exists(_.rows < avocado.head.rows)
    assert(anySmaller)
  }
}
