package repro.core

import repro.ml.MOGBM
import repro.util.Stats

/** Valuation service wrapping the estimator E (Section 2): every algorithm
  * asks it for a state's normalized performance vector; the service counts
  * unique valuated states (the N budget) and records the test set T. It
  * caches no exact result: those are cached once, in the [[StateSpace]].
  */
trait Valuator {
  /** Estimated/actual normalized vector; None = dataset unusable. */
  def valuate(s: State): Option[Array[Double]]

  /** Exact evaluation for final reporting (never counted against N). */
  def exact(s: State): Option[EvalResult]

  /** Unique states valuated so far (N budget consumption). */
  def count: Int

  /** The test-record set T: every valuated state with its vector. */
  def records: Vector[(State, Array[Double])]
}

/** The paper's default: exact valuation for the first `bootstrap` unique
  * states, then a multi-output GBM surrogate fitted on those records answers
  * most states from state features alone (bitmap + size fractions). Every
  * [[SurrogateValuator.ExactEvery]]-th valuation stays exact and refreshes
  * the surrogate, so the record set T keeps growing into the regions the
  * search actually visits (the paper's estimator is likewise trained on the
  * accumulated records). With `bootstrap` ≥ N every valuation is exact.
  */
final class SurrogateValuator(space: StateSpace, bootstrap: Int) extends Valuator {
  private val memo = scala.collection.mutable.LinkedHashMap.empty[State, Option[Array[Double]]]
  // exact valuations so far, and the usable ones in order: the MO-GBM's training set
  private var exactCount = 0
  private val exactRecords = scala.collection.mutable.ArrayBuffer.empty[(State, Array[Double])]
  private var surrogate: Option[MOGBM] = None

  override def valuate(s: State): Option[Array[Double]] =
    memo.getOrElseUpdate(s,
      // exact until the bootstrap is done and the surrogate has a usable record to fit
      if (exactCount < bootstrap || exactRecords.isEmpty || memo.size % SurrogateValuator.ExactEvery == 0) {
        surrogate = None // refit lazily with the enlarged record set
        exactCount += 1
        val v = space.evaluate(s).map(_.norm)
        v.foreach(p => exactRecords += ((s, p)))
        v
      } else {
        if (surrogate.isEmpty) fitSurrogate()
        if (!space.admissible(s) || space.rowCountEstimate(s) < space.minRows) None
        else Some(surrogate.get.predict(features(s)).map(Stats.clip(_, 1e-3, 1.5)))
      })

  override def exact(s: State): Option[EvalResult] = space.evaluate(s)

  /** Surrogate input features for a state: bitmap ++ [row fraction, column
    * fraction] (the estimator learns performance from these).
    */
  private[core] def features(s: State): Array[Double] =
    s.toVector ++ Array(
      space.rowCountEstimate(s).toDouble / fullRows,
      space.layout.attrsOf(s).size.toDouble / math.max(1, space.layout.attrs.size))

  private lazy val fullRows: Long = math.max(1L, space.rowCountEstimate(space.full))

  private def fitSurrogate(): Unit = {
    val m = new MOGBM(nOutputs = space.measures.length, nTrees = 40, maxDepth = 3, minLeaf = 2)
    m.fit(exactRecords.map(r => features(r._1)).toArray, exactRecords.map(_._2).toArray)
    surrogate = Some(m)
  }

  override def count: Int = memo.size
  override def records: Vector[(State, Array[Double])] =
    memo.collect { case (s, Some(v)) => (s, v) }.toVector
}

object SurrogateValuator {
  /** Every this-many-th valuation after the bootstrap is exact. */
  val ExactEvery = 5
}
