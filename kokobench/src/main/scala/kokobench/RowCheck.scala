package kokobench

import repro.core.{KokoEngine, NaiveKoko}

/** Compares query answers as multisets of `(doc, sid, vals)`, each with
  * its satisfying scores. Row order is ignored; multiplicity and scores
  * (to within `Tolerance`) are not.
  */
object RowCheck {

  final case class Row(doc: Long, sid: Long, vals: Map[String, String], scores: Map[String, Double])

  val Tolerance = 1e-9

  def ofEngine(rows: Seq[KokoEngine.OutRow]): Seq[Row] =
    rows.map(r => Row(r.doc, r.sid, r.vals, r.scores))

  def ofReference(rows: Seq[NaiveKoko.OutRow]): Seq[Row] =
    rows.map(r => Row(r.doc, r.sid, r.vals, r.scores))

  private type Key = (Long, Long, Seq[(String, String)])

  private def key(r: Row): Key = (r.doc, r.sid, r.vals.toSeq.sorted)

  private def scoreVec(r: Row): Seq[(String, Double)] = r.scores.toSeq.sortBy(_._1)

  private def sameScores(a: Seq[(String, Double)], b: Seq[(String, Double)]): Boolean =
    a.map(_._1) == b.map(_._1) &&
      a.zip(b).forall { case ((_, x), (_, y)) => math.abs(x - y) <= Tolerance }

  /** None when `got` equals `want`; otherwise a description of the first
    * difference found.
    */
  def diff(got: Seq[Row], want: Seq[Row]): Option[String] = {
    val g = got.groupBy(key)
    val w = want.groupBy(key)
    val keys = (g.keySet ++ w.keySet).toSeq.sortBy(k => (k._1, k._2, k._3.toString))
    keys.iterator.flatMap { k =>
      val gs = g.getOrElse(k, Nil).map(scoreVec).sortBy(_.toString)
      val ws = w.getOrElse(k, Nil).map(scoreVec).sortBy(_.toString)
      if (gs.size != ws.size) Some(s"row $k occurs ${gs.size} times, expected ${ws.size}")
      else gs.zip(ws).collectFirst {
        case (a, b) if !sameScores(a, b) => s"row $k has scores $a, expected $b"
      }
    }.nextOption()
  }

  /** Perturbed copies of `ref` that [[diff]] must tell apart from it: a row
    * dropped, a row duplicated, a value changed and a score moved by
    * 100 × the tolerance (the last only when the rows carry scores).
    */
  def perturbations(ref: Seq[Row]): Seq[(String, Seq[Row])] =
    if (ref.isEmpty) Seq("extra row" -> Seq(Row(0, 0, Map("x" -> "x"), Map.empty)))
    else {
      val h = ref.head
      val scored = ref.indexWhere(_.scores.nonEmpty)
      Seq(
        "dropped row" -> ref.tail,
        "duplicated row" -> (h +: ref),
        "changed value" -> (h.copy(vals = h.vals.updated(h.vals.keys.headOption.getOrElse("x"), "#")) +: ref.tail)) ++
        (if (scored < 0) Nil
         else {
           val r = ref(scored)
           val moved = r.copy(scores = r.scores.map { case (k, v) => k -> (v + 100 * Tolerance) })
           Seq("moved score" -> ref.updated(scored, moved))
         })
    }

  /** True when every perturbation of `ref` is reported as a difference. */
  def selfCheck(ref: Seq[Row]): Boolean =
    diff(ref, ref).isEmpty && perturbations(ref).forall { case (_, p) => diff(p, ref).isDefined }
}
