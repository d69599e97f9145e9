package repro

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark work counted from the listener bus. */
final case class SparkCounts(jobs: Int, tasks: Int, shuffleRecordsWritten: Long)

/** Counts the jobs, tasks and shuffle records written while a block runs.
  *
  * Listener events arrive asynchronously, so before and after the block a
  * one-task marker job runs and the counter waits until it has seen that
  * job end: every event posted before the marker has then been delivered.
  * Marker jobs are not counted.
  */
object SparkCounter {
  private val MarkerKey = "repro.sparkcounter.marker"

  private final class Listener extends SparkListener {
    var jobs = 0
    var tasks = 0
    var shuffleRecords = 0L
    private var markerStages = Set.empty[Int]
    private var markerJob = -1
    private var markersDone = 0

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      if (Option(e.properties).exists(_.getProperty(MarkerKey) != null)) {
        markerJob = e.jobId
        markerStages = e.stageIds.toSet
      } else jobs += 1
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      if (e.jobId == markerJob) { markersDone += 1; notifyAll() }
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      if (!markerStages.contains(e.stageId)) {
        tasks += 1
        shuffleRecords += Option(e.taskMetrics).fold(0L)(_.shuffleWriteMetrics.recordsWritten)
      }
    }

    def settle(sc: SparkContext): Unit = {
      val want = synchronized(markersDone) + 1
      sc.setLocalProperty(MarkerKey, "1")
      try sc.parallelize(Seq(0), 1).count()
      finally sc.setLocalProperty(MarkerKey, null)
      synchronized {
        val deadline = System.currentTimeMillis() + 60000
        while (markersDone < want) {
          val left = deadline - System.currentTimeMillis()
          if (left <= 0) throw new IllegalStateException("listener bus did not deliver the marker job")
          wait(left)
        }
      }
    }

    def reset(): Unit = synchronized { jobs = 0; tasks = 0; shuffleRecords = 0 }
    def counts: SparkCounts = synchronized(SparkCounts(jobs, tasks, shuffleRecords))
  }

  def count[A](sc: SparkContext)(f: => A): (A, SparkCounts) = {
    val l = new Listener
    sc.addSparkListener(l)
    try {
      l.settle(sc)
      l.reset()
      val a = f
      l.settle(sc)
      (a, l.counts)
    } finally sc.removeSparkListener(l)
  }
}
