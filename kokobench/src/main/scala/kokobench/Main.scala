package kokobench

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.SparkSession
import repro.bench.{QualityHarness, Table2Harness}
import repro.core._
import repro.index.Indexes
import repro.jobs.JobSpark
import repro.nlp.{CorpusGen, Sent}

/** One benchmark run: sets the corpus and index up, checks the reference,
  * then sends the workload's query from one closed-loop client for the
  * measured window and writes the raw measurements as JSON.
  *
  * Untraced runs record end-to-end samples only. Traced runs also call each
  * layer's public functions on their own, inside spans, and count Spark's
  * work per query with a listener.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file>`
  */
object Main {

  final case class Workload(name: String, kind: String, docs: Long, query: String)

  val Workloads: Seq[Workload] = Seq(
    Workload("wiki-selective", "wiki", 2000, Table2Harness.ChocolateQ),
    Workload("wiki-broad", "wiki", 2000, Table2Harness.DobQ),
    Workload("cafe-aggregate", "cafe", 1000, QualityHarness.cafeQuery(0.6, withDescriptors = true)))

  /** Set-ups per run; `setup_s` is their median. */
  val SetupRepeats = 3

  /** Queries sent before the window opens. Latency of a fresh JVM falls for
    * about 8 queries while the JIT compiles Spark's scheduling and shuffle
    * paths; 2 take off the steepest part within the run's time budget.
    */
  val WarmupQueries = 2

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workloads.find(_.name == opt("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${opt("workload")}"))
    val spark = JobSpark.session("kokobench")
    spark.sparkContext.setLogLevel("WARN")
    try {
      val report = new Run(spark, w, opt("seed").toLong, opt("seconds").toDouble, opt("trace") == "1")()
      val json = new ObjectMapper().registerModule(DefaultScalaModule).writeValueAsString(report)
      java.nio.file.Files.writeString(java.nio.file.Paths.get(opt("out")), json)
    } finally spark.stop()
  }
}

final class Run(spark: SparkSession, w: Main.Workload, seed: Long, seconds: Double, trace: Boolean) {
  import spark.implicits._

  private val sc = spark.sparkContext
  private val tracer = new Tracer
  private val layers = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private val queries = mutable.ArrayBuffer.empty[Map[String, Any]]

  private def rec(name: String, v: Double): Unit =
    layers.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Time the hypervisor ran something else while the virtual machine's CPUs
    * wanted to run: the `steal` column of /proc/stat, in seconds per CPU;
    * 0 where the kernel does not report it. Latencies are reported with it
    * taken out, so that they measure the program and not the host's load.
    */
  private def stealS: Double = Try {
    val lines = java.nio.file.Files.readAllLines(java.nio.file.Paths.get("/proc/stat")).asScala
    val cpus = lines.count(_.matches("cpu[0-9]+ .*"))
    lines.head.trim.split("\\s+")(8).toDouble / 100 / cpus
  }.getOrElse(0.0)

  private def storageMb: Double = sc.getRDDStorageInfo.map(_.memSize).sum / 1e6

  /** Generates and indexes the corpus, both materialised. */
  private def setup(): (Indexes.Built, Double) = tracer.span("setup") {
    val ((corpus, nSents), genS) = timed(tracer.span("nlp") {
      val c = CorpusGen.corpus(spark, w.kind, w.docs, seed).cache()
      (c, c.count())
    })
    val ((built, nWord, nEnt), buildS) = timed(tracer.span("index") {
      val b = Indexes.build(spark, corpus)
      (b, b.word.count(), b.entity.count())
    })
    rec("nlp.corpusgen_s", genS)
    rec("nlp.sentences", nSents.toDouble)
    rec("index.build_s", buildS)
    rec("index.word_rows", nWord.toDouble)
    rec("index.entity_rows", nEnt.toDouble)
    rec("index.pl_nodes", built.plNodes.size.toDouble)
    rec("index.pos_nodes", built.posNodes.size.toDouble)
    rec("index.cached_rdds", sc.getRDDStorageInfo.length.toDouble)
    (built, genS + buildS)
  }

  /** Checks a query's rows against the reference and records the query;
    * a query that threw or returned other rows counts as failed.
    */
  private def record(
      phase: String, latencyS: Double, r: Try[KokoEngine.Result],
      reference: Seq[RowCheck.Row], steal: Double = 0): Option[KokoEngine.Result] = {
    val error = r match {
      case Success(res) => RowCheck.diff(RowCheck.ofEngine(res.rows), reference)
      case Failure(e) => Some(e.toString)
    }
    queries += Map("phase" -> phase, "latency_s" -> latencyS, "ok" -> error.isEmpty,
      "rows" -> r.map(_.rows.size).getOrElse(-1), "error" -> error.getOrElse(""),
      "steal_s" -> steal)
    r.toOption
  }

  def apply(): Map[String, Any] = {
    val setups = (1 to Main.SetupRepeats).map { i =>
      // Drop every cached dataset: `Built.unpersist` would leave the token
      // rows `Indexes.build` caches outside `Built` behind.
      if (i > 1) spark.catalog.clearCache()
      val st0 = stealS
      val (b, s) = setup()
      (b, s, stealS - st0)
    }
    val built = setups.last._1
    val indexMb = storageMb

    // The reference answer, outside the set-up time and the window.
    val sents: Seq[Sent] = built.sentences.collect().toSeq
    val nq = Normalizer.normalize(KokoParser.parse(w.query))
    val reference = RowCheck.ofReference(NaiveKoko.run(nq, sents))
    val selfCheck = RowCheck.selfCheck(reference)

    def query(phase: String): Double = {
      val st0 = stealS
      val (r, s) = timed(Try(KokoEngine.run(spark, w.query, built)))
      record(phase, s, r, reference, stealS - st0)
      s
    }

    (1 to Main.WarmupQueries).foreach(_ => query("warmup"))
    val windowS =
      if (trace) { tracedWindow(built, sents, nq, reference, () => query("untraced")); 0.0 }
      else {
        // Checking rows against the reference is not part of the window. A
        // query starts only if one as long as the last still fits.
        val start = System.nanoTime()
        var checkNs = 0L
        var last = 0.0
        def elapsed = (System.nanoTime() - start - checkNs) / 1e9
        do {
          val t0 = System.nanoTime()
          last = query("window")
          checkNs += System.nanoTime() - t0 - (last * 1e9).toLong
        } while (elapsed + last <= seconds)
        elapsed
      }

    Map(
      "workload" -> w.name,
      "trace" -> trace,
      "provenance" -> Map(
        "nproc" -> Runtime.getRuntime.availableProcessors,
        "spark_master" -> sc.master,
        "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "spark_version" -> spark.version,
        "corpus_kind" -> w.kind,
        "corpus_docs" -> w.docs,
        "seed" -> seed),
      "docs" -> w.docs,
      "setup_s" -> setups.map(_._2),
      "setup_steal_s" -> setups.map(_._3),
      "index_mb" -> indexMb,
      "reference_rows" -> reference.size,
      "self_check" -> selfCheck,
      "queries" -> queries.toSeq,
      "window_s" -> windowS,
      "layers" -> layers.map { case (k, v) => k -> v.toSeq }.toMap,
      "spans" -> tracer.spans.toSeq.map(s =>
        Map("id" -> s.id, "parent" -> s.parent, "query" -> s.query, "name" -> s.name,
          "start_ns" -> s.startNs, "end_ns" -> s.endNs)))
  }

  /** Each iteration sends one untraced query, then calls every layer on its
    * own and the engine once more with the listener counting, each inside a
    * span of that iteration's query id.
    */
  private def tracedWindow(
      built: Indexes.Built,
      sents: Seq[Sent],
      nq: Normalizer.NormQuery,
      reference: Seq[RowCheck.Row],
      untracedQuery: () => Double): Unit = {
    val counts = new SparkCounts(sc)
    val cores = sc.defaultParallelism
    // Inputs of the layer calls made outside Spark, prepared once: the candidate
    // sentences DPLI returns and each document's sentences.
    val candSents: Seq[Sent] = KokoEngine.candidateSids(built, nq)
      .map(df => built.sentences.join(df, "sid").select("doc", "sid", "toks").as[Sent].collect().toSeq)
      .getOrElse(sents)
    val docSents: Map[Long, Seq[Sent]] = sents.groupBy(_.doc).map { case (d, ss) => d -> ss.sortBy(_.sid) }
    val precision =
      if (candSents.isEmpty) 1.0 else NaiveKoko.matchingSids(nq, candSents).size.toDouble / candSents.size

    // An iteration starts only if one as long as the last still fits.
    val start = System.nanoTime()
    var last = 0.0
    var i = 0
    do {
      val t0 = System.nanoTime()
      val untracedS = untracedQuery()
      tracer.inQuery(i)(tracer.span("query") {
        val (_, normS) = timed(tracer.span("core.normalize")(
          Normalizer.normalize(KokoParser.parse(w.query))))
        rec("normalize.ms", normS * 1e3)

        tracer.span("core.dpli") {
          val items = KokoEngine.pruningItems(built, nq)
          val itemRuns = items.map(df => timed(tracer.span("core.dpli.item")(df.count())))
          val (nCand, dpliS) = timed(tracer.span("core.dpli.candidates")(
            KokoEngine.candidateSids(built, nq).map(_.count()).getOrElse(sents.size.toLong)))
          rec("dpli.s", dpliS)
          rec("dpli.items", items.size)
          rec("dpli.item_s", itemRuns.map(_._2).sum)
          rec("dpli.postings", itemRuns.map(_._1).sum.toDouble)
          rec("dpli.candidates", nCand.toDouble)
          rec("dpli.precision", precision)
        }

        var gspNs = 0L
        val (tuples, evalS) = timed(tracer.span("core.evaluate") {
          candSents.flatMap { s =>
            SentenceEvaluator.evaluate(nq, s, useGsp = true, ns => gspNs += ns).flatMap { bound =>
              val vals = nq.neededVars.flatMap(v =>
                bound.get(v).map(b => v -> SentenceEvaluator.valueOf(s, b))).toMap
              if (nq.outputs.forall(o => vals.contains(o.name))) Some(s.doc -> vals) else None
            }
          }
        })
        val nSents = math.max(candSents.size, 1)
        rec("evaluate.sents", candSents.size)
        rec("evaluate.us_per_sent", evalS * 1e6 / nSents)
        rec("evaluate.gsp_us_per_sent", gspNs / 1e3 / nSents)
        rec("evaluate.tuples", tuples.size)

        val pairs = tuples.flatMap { case (doc, vals) =>
          nq.satisfying.flatMap(sat => vals.get(sat.v).map(v => (doc, sat, v)))
        }.distinct
        var scoreSum = 0.0
        val (_, aggS) = timed(tracer.span("core.aggregate") {
          pairs.foreach { case (doc, sat, v) => scoreSum += Aggregator.score(sat, v, docSents(doc)) }
        })
        rec("aggregate.pairs", pairs.size)
        rec("aggregate.us_per_pair", if (pairs.isEmpty) 0.0 else aggS * 1e6 / pairs.size)

        val (before, _) = counts.settle()
        val (r, engineS) = timed(tracer.span("core.engine")(Try(KokoEngine.run(spark, w.query, built))))
        val (after, noopS) = counts.settle()
        val d = after - before
        record("traced", engineS, r, reference).foreach { res =>
          val t = res.timings
          rec("aggregate.pass_ratio",
            if (res.nCandidateTuples == 0) 1.0 else res.rows.size.toDouble / res.nCandidateTuples)
          rec("engine.query_s", engineS)
          rec("engine.normalize_s", t.normalize)
          rec("engine.dpli_s", t.dpli)
          rec("engine.load_s", t.load)
          // KokoEngine subtracts summed task CPU (gsp) from the extract wall time.
          rec("engine.extract_wall_s", t.extract + t.gsp)
          rec("engine.gsp_cpu_s", t.gsp)
          rec("engine.satisfying_s", t.satisfying)
          rec("engine.candidate_sents", res.nCandidateSents.toDouble)
          rec("engine.candidate_tuples", res.nCandidateTuples.toDouble)
          rec("engine.rows", res.rows.size)
          rec("spark.jobs", d.jobs.toDouble)
          rec("spark.tasks", d.tasks.toDouble)
          rec("spark.failed_tasks", d.failedTasks.toDouble)
          rec("spark.shuffle_read_mb", d.shuffleReadBytes / 1e6)
          rec("spark.shuffle_write_mb", d.shuffleWriteBytes / 1e6)
          rec("spark.task_run_s", d.taskRunMs / 1e3)
          rec("spark.busy_ratio", d.taskRunMs / 1e3 / (engineS * cores))
          rec("spark.noop_job_s", noopS)
          rec("trace.overhead_s", engineS - untracedS)
        }
      })
      i += 1
      last = (System.nanoTime() - t0) / 1e9
    } while ((System.nanoTime() - start) / 1e9 + last <= seconds)
  }
}
