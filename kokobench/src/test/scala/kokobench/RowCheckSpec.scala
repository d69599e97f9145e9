package kokobench

import org.scalatest.funsuite.AnyFunSuite
import kokobench.RowCheck.Row

class RowCheckSpec extends AnyFunSuite {

  private val a = Row(1, 64, Map("x" -> "Cafe Rio", "v" -> "serves"), Map("x" -> 0.75))
  private val b = Row(2, 130, Map("x" -> "Blue Roasters"), Map("x" -> 1.5))
  private val c = Row(2, 131, Map("x" -> "Blue Roasters"), Map.empty)

  test("row order does not matter") {
    assert(RowCheck.diff(Seq(a, b, c), Seq(c, a, b)).isEmpty)
  }

  test("map order inside a row does not matter") {
    val a2 = a.copy(vals = Map("v" -> "serves", "x" -> "Cafe Rio"))
    assert(RowCheck.diff(Seq(a2), Seq(a)).isEmpty)
  }

  test("multiplicity matters") {
    assert(RowCheck.diff(Seq(a, a, b), Seq(a, b)).isDefined)
    assert(RowCheck.diff(Seq(a, b), Seq(a, a, b)).isDefined)
    assert(RowCheck.diff(Seq(a, a, b), Seq(a, b, a)).isEmpty)
  }

  test("missing, extra and changed rows are reported") {
    assert(RowCheck.diff(Seq(a), Seq(a, b)).isDefined)
    assert(RowCheck.diff(Seq(a, b), Seq(a)).isDefined)
    assert(RowCheck.diff(Seq(a.copy(sid = 65)), Seq(a)).isDefined)
    assert(RowCheck.diff(Seq(a.copy(vals = a.vals.updated("x", "Cafe Roma"))), Seq(a)).isDefined)
  }

  test("scores are equal to within the tolerance") {
    val near = a.copy(scores = Map("x" -> (0.75 + RowCheck.Tolerance / 2)))
    val far = a.copy(scores = Map("x" -> (0.75 + RowCheck.Tolerance * 10)))
    assert(RowCheck.diff(Seq(near), Seq(a)).isEmpty)
    assert(RowCheck.diff(Seq(far), Seq(a)).isDefined)
    assert(RowCheck.diff(Seq(a.copy(scores = Map.empty)), Seq(a)).isDefined)
    assert(RowCheck.diff(Seq(a.copy(scores = Map("y" -> 0.75))), Seq(a)).isDefined)
  }

  test("every perturbation of a reference is caught") {
    for (ref <- Seq(Seq(a, b, c), Seq(c), Seq.empty[Row])) {
      assert(RowCheck.selfCheck(ref), ref)
      RowCheck.perturbations(ref).foreach { case (what, p) =>
        assert(RowCheck.diff(p, ref).isDefined, what)
      }
    }
    assert(RowCheck.perturbations(Seq(a, b)).map(_._1).contains("moved score"))
  }
}
