package repro.lake

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import scala.util.Random

/** A named source table of a data lake. */
final case class LakeTable(name: String, df: DataFrame)

/** One task's corner of a synthetic data lake: a labelled base table,
  * joinable auxiliary tables (carrying informative and pure-noise columns),
  * and non-joinable distractor tables (for the union-search baseline to
  * reject). Substitutes the paper's Kaggle/OpenData/HF corpora — see
  * DESIGN.md §2.
  */
final case class TabularLake(
    name: String,
    key: String,
    target: String,
    base: LakeTable,
    aux: Seq[LakeTable],
    distractors: Seq[LakeTable],
    /** Attributes whose value clusters drive row masking (reduct literals). */
    segmentAttrs: Seq[String],
    classification: Boolean,
    /** Ground truth, for tests: which attributes carry signal vs noise. */
    informativeAttrs: Set[String],
    noiseAttrs: Set[String],
) {
  def allSources: Seq[LakeTable] = base +: aux
  def featureAttrs: Seq[String] = allSources.flatMap(attrsOf).distinct

  /** A table's columns other than the key and the target, in table order. */
  def attrsOf(t: LakeTable): Vector[String] =
    t.df.columns.filterNot(c => c == key || c == target).toVector
}

/** Deterministic generator of the T1–T4 lakes from their parameters in
  * `repro.core.TabularTask.Specs` (T5 is in [[GraphLake]]). Row counts follow
  * the paper's universal-table sizes, scaled by `sf` (sf=0.1 approximates the
  * paper scale, capped at 8000 rows so driver-side model fits stay in
  * milliseconds; documented substitution).
  */
object DataLake {

  /** A lake's generation parameters. */
  final case class Params(
      name: String,
      paperRows: Int,
      nInformative: Int,
      nNoise: Int,
      /** cluster counts of the two segment attributes */
      segK: (Int, Int),
      /** clusters of segment attr 0 that carry heavy label noise */
      noisySegs: Set[Int],
      classification: Boolean,
      seed: Long,
  )

  // label noise in the noisy segment clusters: class flip chance, regression noise sd
  private val FlipProb = 0.45
  private val NoiseSigma = 3.0

  def rowsAt(paperRows: Int, sf: Double): Int =
    math.min(8000, math.max(200, (paperRows * sf * 10).toInt))

  /** Build one lake: latent informative features produce the target; noisy
    * segment clusters corrupt labels; features are scattered over the base
    * and three auxiliary tables (one of them pure noise); plus distractors.
    */
  def generic(spark: SparkSession, p: Params, sf: Double): TabularLake = {
    val rng = new Random(p.seed)
    val n = rowsAt(p.paperRows, sf)
    val key = "id"; val target = "target"

    val infNames = (1 to p.nInformative).map(i => s"inf_$i")
    val nzNames  = (1 to p.nNoise).map(i => s"nz_$i")
    val segNames = Seq("seg_quality", "seg_region")

    // decaying magnitudes: a handful of strong features carry most of the
    // signal (tree models can then actually learn it), the tail contributes
    // marginally; alternate signs so the combination is not one-sided
    val w = infNames.indices.map(j => (0.8 + 0.4 * rng.nextDouble()) * math.pow(0.72, j)).toArray
    for (j <- w.indices if j % 2 == 1) w(j) = -w(j)

    val inf = Array.fill(n)(Array.fill(p.nInformative)(rng.nextGaussian()))
    val nz  = Array.fill(n)(Array.fill(p.nNoise)(rng.nextGaussian()))
    val segQCluster = Array.fill(n)(rng.nextInt(p.segK._1))
    val segRCluster = Array.fill(n)(rng.nextInt(p.segK._2))
    // well-separated cluster values so 1-D k-means recovers the partition
    val segQ = segQCluster.map(c => c * 2.0 + rng.nextDouble() * 0.9)
    val segR = segRCluster.map(c => c * 2.0 + rng.nextDouble() * 0.9)

    val score = Array.tabulate(n) { i =>
      var s = 0.0
      var j = 0
      while (j < p.nInformative) { s += w(j) * inf(i)(j); j += 1 }
      s
    }
    val y = Array.tabulate(n) { i =>
      val noisy = p.noisySegs.contains(segQCluster(i))
      if (p.classification) {
        val clean = if (score(i) + rng.nextGaussian() * 0.3 > 0) 1.0 else 0.0
        if (noisy && rng.nextDouble() < FlipProb) 1.0 - clean else clean
      } else {
        score(i) + rng.nextGaussian() * 0.3 +
          (if (noisy) rng.nextGaussian() * NoiseSigma else 0.0)
      }
    }

    // Column layout: base holds 2 informative + both segments; the rest of
    // the informative and noise columns round-robin into aux1/aux2; aux3 is
    // pure noise.
    val baseInf = infNames.take(2)
    val restInf = infNames.drop(2)
    val aux1Inf = restInf.zipWithIndex.collect { case (c, i) if i % 2 == 0 => c }
    val aux2Inf = restInf.zipWithIndex.collect { case (c, i) if i % 2 == 1 => c }
    val aux1Nz = nzNames.zipWithIndex.collect { case (c, i) if i % 3 == 0 => c }
    val aux2Nz = nzNames.zipWithIndex.collect { case (c, i) if i % 3 == 1 => c }
    val aux3Nz = nzNames.zipWithIndex.collect { case (c, i) if i % 3 == 2 => c }

    def col(name: String): Int => Double = name match {
      case s if s.startsWith("inf_") => val j = s.stripPrefix("inf_").toInt - 1; i => inf(i)(j)
      case s if s.startsWith("nz_")  => val j = s.stripPrefix("nz_").toInt - 1; i => nz(i)(j)
      case "seg_quality"             => i => segQ(i)
      case "seg_region"              => i => segR(i)
    }

    def mkTable(name: String, cols: Seq[String], coverage: Double,
                withTarget: Boolean, covSeed: Long): LakeTable = {
      val covRng = new Random(p.seed ^ covSeed)
      val ids = (0 until n).filter(_ => covRng.nextDouble() < coverage).toArray
      val fields = StructField(key, LongType, nullable = false) +:
        (if (withTarget) Seq(StructField(target, DoubleType, nullable = false)) else Nil) ++:
        cols.map(c => StructField(c, DoubleType, nullable = false))
      val values = (if (withTarget) Seq((i: Int) => y(i)) else Nil) ++: cols.map(col)
      table(spark, name, fields, ids, values.map(f => ids.map(f)).toArray, slices = 4)
    }

    val base = mkTable(s"${p.name}_base", segNames ++ baseInf, coverage = 1.0,
      withTarget = true, covSeed = 1)
    val aux = Seq(
      mkTable(s"${p.name}_aux1", aux1Inf ++ aux1Nz, coverage = 0.92, withTarget = false, covSeed = 2),
      mkTable(s"${p.name}_aux2", aux2Inf ++ aux2Nz, coverage = 0.88, withTarget = false, covSeed = 3),
      mkTable(s"${p.name}_junk", aux3Nz, coverage = 1.0, withTarget = false, covSeed = 4),
    ).filter(_.df.columns.length > 1)

    val distractors = (1 to 3).map { d =>
      val dn = 50 + rng.nextInt(100)
      val cols = (1 to 2 + rng.nextInt(3)).map(c => s"${p.name}_d${d}_c$c")
      val fields = StructField("code", LongType, nullable = false) +:
        cols.map(c => StructField(c, DoubleType, nullable = false))
      val drng = new Random(p.seed + 1000 + d)
      val codes = new Array[Int](dn)
      val values = Array.ofDim[Double](cols.size, dn)
      for (i <- 0 until dn) {
        codes(i) = drng.nextInt(100000)
        cols.indices.foreach(c => values(c)(i) = drng.nextDouble() * 1000)
      }
      table(spark, s"${p.name}_distractor$d", fields, codes, values, slices = 2)
    }

    TabularLake(
      name = p.name, key = key, target = target,
      base = base, aux = aux, distractors = distractors,
      segmentAttrs = segNames,
      classification = p.classification,
      informativeAttrs = infNames.toSet,
      noiseAttrs = nzNames.toSet,
    )
  }

  /** A table whose cells the driver holds once, unboxed: the key column as
    * `Int`s and each further column as `Double`s, cut into the slices that
    * `parallelize(rows, slices)` makes. Each slice's rows (the key as a
    * `Long`) are made, in order, in the task that reads it.
    */
  private def table(spark: SparkSession, name: String, fields: Seq[StructField],
                    keys: Array[Int], cols: Array[Array[Double]], slices: Int): LakeTable = {
    val n = keys.length
    val parts = (0 until slices).map { s =>
      val (from, until) = (s * n / slices, (s + 1) * n / slices)
      (keys.slice(from, until), cols.map(_.slice(from, until)))
    }
    val rows = spark.sparkContext.parallelize(parts, slices).flatMap { case (ks, cs) =>
      Iterator.tabulate(ks.length)(i => Row.fromSeq(ks(i).toLong +: cs.map(_(i)).toSeq))
    }
    LakeTable(name, spark.createDataFrame(rows, StructType(fields.toArray)))
  }

  /** Corpus-level stats for Table 2: (#tables, #columns, #rows) over a set
    * of lakes (sources + distractors).
    */
  def corpusStats(lakes: Seq[TabularLake]): (Int, Long, Long) = {
    val tables = lakes.flatMap(l => l.allSources ++ l.distractors)
    val nTables = tables.size
    val nCols = tables.map(_.df.columns.length.toLong).sum
    val nRows = tables.map(_.df.count()).sum
    (nTables, nCols, nRows)
  }
}
