package kokobench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is -1 for a query's root span;
  * every span of one query carries that query's id.
  */
final case class Span(id: Int, parent: Int, query: Int, name: String, startNs: Long, endNs: Long)

/** Records nested spans in memory; they are written out when the run ends. */
final class Tracer {
  val spans = ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var query = -1

  def inQuery[A](q: Int)(f: => A): A = {
    query = q
    try f finally query = -1
  }

  def span[A](name: String)(f: => A): A = {
    val id = spans.size
    val parent = stack.headOption.getOrElse(-1)
    spans += Span(id, parent, query, name, System.nanoTime(), 0L)
    stack = id :: stack
    try f
    finally {
      stack = stack.tail
      spans(id) = spans(id).copy(endNs = System.nanoTime())
    }
  }
}
