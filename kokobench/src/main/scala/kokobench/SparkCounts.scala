package kokobench

import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._

/** Listener totals of the Spark work a query caused. */
final case class Counts(
    jobs: Long = 0, tasks: Long = 0, failedTasks: Long = 0,
    shuffleReadBytes: Long = 0, shuffleWriteBytes: Long = 0, taskRunMs: Long = 0) {
  def -(o: Counts): Counts = Counts(jobs - o.jobs, tasks - o.tasks, failedTasks - o.failedTasks,
    shuffleReadBytes - o.shuffleReadBytes, shuffleWriteBytes - o.shuffleWriteBytes,
    taskRunMs - o.taskRunMs)
}

/** Counts jobs, tasks, shuffle bytes and task run time from the listener
  * bus. Events arrive asynchronously, so [[settle]] runs a one-task marker
  * job and waits until the listener has seen it end: everything posted
  * before the marker has then been counted. The marker job is not counted,
  * and its wall time is Spark's fixed cost of one job.
  */
final class SparkCounts(sc: SparkContext) extends SparkListener {
  private val MarkerKey = "kokobench.marker"
  private var totals = Counts()
  private var markerStages = Set.empty[Int]
  private var markerJob = -1
  private var markerDone = -1L
  private var markers = 0L

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(MarkerKey))) match {
      case Some(_) => markerJob = e.jobId; markerStages = e.stageIds.toSet
      case None => totals = totals.copy(jobs = totals.jobs + 1)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == markerJob) { markerDone = markers; notifyAll() }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages.contains(e.stageId)) {
      val m = Option(e.taskMetrics)
      totals = Counts(
        totals.jobs,
        totals.tasks + 1,
        totals.failedTasks + (if (e.reason == Success) 0 else 1),
        totals.shuffleReadBytes + m.map(_.shuffleReadMetrics.totalBytesRead).getOrElse(0L),
        totals.shuffleWriteBytes + m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
        totals.taskRunMs + m.map(_.executorRunTime).getOrElse(0L))
    }
  }

  /** Runs the marker job, waits until every earlier event is counted, and
    * returns the totals so far with the marker job's wall time in seconds.
    */
  def settle(): (Counts, Double) = {
    val n = synchronized { markers += 1; markers }
    sc.setLocalProperty(MarkerKey, n.toString)
    val t0 = System.nanoTime()
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(MarkerKey, null)
    val noopS = (System.nanoTime() - t0) / 1e9
    synchronized {
      val deadline = System.currentTimeMillis() + 60000
      while (markerDone < n) {
        val left = deadline - System.currentTimeMillis()
        if (left <= 0) throw new IllegalStateException("listener bus did not deliver the marker job")
        wait(left)
      }
      (totals, noopS)
    }
  }
}
