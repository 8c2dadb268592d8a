package repro.perfbench

import repro.core._
import scala.collection.mutable

/** One timed call into a layer. `childNs` is the part of the interval that
  * nested calls cover, so `selfNs` is the layer's own time.
  */
final case class Span(search: Int, id: Int, parent: Int, name: String,
                      startNs: Long, endNs: Long, childNs: Long) {
  def durNs: Long = endNs - startNs
  def selfNs: Long = durNs - childNs
}

/** Records, from outside the program, what one search did: counts always,
  * and with `timed` on, a span around every call into a layer. Spans stay in
  * memory until the benchmark writes them out at the end.
  *
  * `rowCount` is called up to ~100k times per search, so it is kept as a
  * counter plus samples rather than as spans; its time is still charged to
  * the enclosing span as child time.
  */
final class Recorder(val search: Int, val timed: Boolean) {
  private final class Open(val id: Int, val parent: Int, val start: Long) { var childNs = 0L }
  private var stack: List[Open] = Nil
  private var nextId = 0
  private var open = true

  /** Stop recording: calls after the search (the winner's exact valuation)
    * are not part of it, and every count keeps its value at the search's end.
    */
  def close(): Unit = open = false

  val spans = mutable.ArrayBuffer.empty[Span]
  val rowCountNs = mutable.ArrayBuffer.empty[Long]
  var rowCountCalls = 0L

  // States materialized so far, and those the engine's valuations sent to
  // the task for the first time (memo hits and BackSt's probes excluded).
  private val seen = mutable.HashSet.empty[State]
  val evaluated = mutable.ArrayBuffer.empty[State]
  var evaluateCalls = 0
  var unusable = 0
  var rowsUsable = 0L
  val fitSec = mutable.ArrayBuffer.empty[Double]

  var valuateCalls = 0
  // valuate self time of the calls that did not evaluate exactly
  val estimateNs = mutable.ArrayBuffer.empty[Long]

  def span[A](name: String)(f: => A): A =
    if (!timed || !open) f
    else {
      val o = new Open(nextId, stack.headOption.fold(-1)(_.id), System.nanoTime())
      nextId += 1
      stack = o :: stack
      try f
      finally {
        val end = System.nanoTime()
        stack = stack.tail
        stack.headOption.foreach(_.childNs += end - o.start)
        spans += Span(search, o.id, o.parent, name, o.start, end, o.childNs)
      }
    }

  def rowCount(f: => Long): Long =
    if (!open) f
    else if (!timed) { rowCountCalls += 1; f }
    else {
      rowCountCalls += 1
      val t0 = System.nanoTime()
      val r = f
      val d = System.nanoTime() - t0
      stack.headOption.foreach(_.childNs += d)
      rowCountNs += d
      r
    }

  def onBackStart(sb: State): Unit = if (open) seen += sb

  def onEvaluate(s: State, r: Option[EvalResult]): Unit =
    if (open) {
      evaluateCalls += 1
      if (seen.add(s)) {
        evaluated += s
        r match {
          case Some(e) => rowsUsable += e.rows; fitSec += e.raw("train")
          case None    => unusable += 1
        }
      }
    }

  def valuate[A](f: => A): A =
    if (!open) f
    else {
      valuateCalls += 1
      val exactBefore = exactEvaluations
      val r = span("valuator.valuate")(f)
      if (timed && exactEvaluations == exactBefore) estimateNs += spans.last.selfNs
      r
    }

  def exactEvaluations: Int = evaluated.size

  def named(name: String): Iterator[Span] = spans.iterator.filter(_.name == name)
  def totalSec(name: String): Double = named(name).map(_.durNs).sum / 1e9
  def selfSec(name: String): Double = named(name).map(_.selfNs).sum / 1e9
}

/** Delegating [[StateSpace]] that reports every call to a [[Recorder]].
  * `features` keeps the trait's default so its row counts pass through
  * `rowCountEstimate` here.
  */
final class TracedSpace(inner: TabularSpace, rec: Recorder) extends StateSpace {
  override def layout: BitLayout = inner.layout
  override def full: State = inner.full
  override def measures: Vector[Measure] = inner.measures
  override def admissible(s: State): Boolean = inner.admissible(s)

  // BackSt evaluates its states inside the inner space; the state it returns
  // is therefore already materialized when the engine valuates it.
  override lazy val backStart: State = {
    val sb = rec.span("space.backStart")(inner.backStart)
    rec.onBackStart(sb)
    sb
  }

  override def neighborsReduct(s: State): Seq[State] =
    rec.span("space.neighbors")(inner.neighborsReduct(s))

  override def neighborsAugment(s: State): Seq[State] =
    rec.span("space.neighbors")(inner.neighborsAugment(s))

  override def evaluate(s: State): Option[EvalResult] = {
    val r = rec.span("space.evaluate")(inner.evaluate(s))
    rec.onEvaluate(s, r)
    r
  }

  override def rowCountEstimate(s: State): Long = rec.rowCount(inner.rowCountEstimate(s))
}

/** Delegating [[Valuator]] that reports `valuate` calls to a [[Recorder]]. */
final class TracedValuator(inner: Valuator, rec: Recorder) extends Valuator {
  override def valuate(s: State): Option[Array[Double]] = rec.valuate(inner.valuate(s))
  override def exact(s: State): Option[EvalResult] = inner.exact(s)
  override def count: Int = inner.count
  override def records: Vector[(State, Array[Double])] = inner.records
}
