// The fti serve daemon, exercised in-process over its real AF_UNIX
// socket: protocol round-trips, warm resubmission through the design
// cache, job lifecycle (status/cancel) and clean shutdown.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <regex>
#include <thread>
#include <vector>

#include "fti/serve/serve.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/json_reader.hpp"

namespace fti::serve {
namespace {

std::filesystem::path unique_socket(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("fti_test_" + tag + "_" + std::to_string(::getpid()) + ".sock");
}

std::filesystem::path kernel_path(const char* name) {
  // tests/data is FTI_TEST_DATA_DIR; the sample kernels live next to it
  // in examples/.
  return std::filesystem::path(FTI_TEST_DATA_DIR).parent_path().parent_path() /
         "examples" / "kernels" / name;
}

/// Masks every decimal number (the wall-clock fields -- cycle and event
/// counts are integers and stay intact), so two reports can be compared
/// byte-for-byte modulo timing.
std::string mask_wall_clock(const std::string& text) {
  static const std::regex decimal("[0-9]+\\.[0-9]+");
  return std::regex_replace(text, decimal, "#");
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.socket_path = unique_socket("serve");
    options.jobs = 2;
    options.cache_entries = 8;
    server_ = std::make_unique<Server>(options);
    server_->start();
  }

  void TearDown() override {
    server_->shutdown();
    EXPECT_FALSE(std::filesystem::exists(server_->socket_path()));
    server_.reset();
  }

  util::JsonValue roundtrip(const std::string& line) {
    return util::parse_json(request(server_->socket_path(), line));
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, PingPongs) {
  util::JsonValue reply = roundtrip("{\"cmd\": \"ping\"}");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("reply").as_string(), "pong");
}

TEST_F(ServeTest, MalformedAndUnknownRequestsFailSoftly) {
  EXPECT_FALSE(roundtrip("this is not json").at("ok").as_bool());
  EXPECT_FALSE(roundtrip("{\"cmd\": \"frobnicate\"}").at("ok").as_bool());
  EXPECT_FALSE(roundtrip("{\"no_cmd\": 1}").at("ok").as_bool());
  util::JsonValue status = roundtrip("{\"cmd\": \"status\", \"job\": 999}");
  EXPECT_FALSE(status.at("ok").as_bool());
  EXPECT_NE(status.at("error").as_string().find("unknown job"),
            std::string::npos);
}

TEST_F(ServeTest, DeeplyNestedRequestFailsSoftlyAndDaemonKeepsAnswering) {
  util::JsonValue reply = roundtrip(std::string(200000, '['));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").as_string().find("nesting deeper than"),
            std::string::npos)
      << reply.at("error").as_string();
  EXPECT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
}

TEST_F(ServeTest, DeeplyNestedKernelFailsSoftlyAndDaemonKeepsAnswering) {
  // A verify job reaches the kernel parser through a path: 100,000 nested
  // `(` must fail that one job as an input error, not take the daemon
  // down.
  std::filesystem::path kernel = unique_socket("deep_kernel");
  kernel.replace_extension(".k");
  util::write_file(kernel, "kernel k(int a[2]) { a[0] = " +
                               std::string(100000, '(') + "1" +
                               std::string(100000, ')') + "; }\n");
  util::JsonValue reply = roundtrip("{\"cmd\": \"verify\", \"kernel\": \"" +
                                    kernel.string() + "\"}");
  std::filesystem::remove(kernel);
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "error");
  EXPECT_EQ(reply.at("exit_code").as_u64(), 2u);
  EXPECT_NE(reply.at("errors").as_string().find("nesting deeper than"),
            std::string::npos)
      << reply.at("errors").as_string();
  EXPECT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
}

TEST_F(ServeTest, HugeMemoryKernelFailsSoftlyAndDaemonKeepsAnswering) {
  // Four trillion words would abort the daemon with std::bad_alloc; sema
  // rejects the array before anything is allocated, so only the job fails.
  std::filesystem::path kernel = unique_socket("huge_memory");
  kernel.replace_extension(".k");
  util::write_file(kernel,
                   "kernel big(int m[4000000000000]) { m[0] = 1; }\n");
  util::JsonValue reply = roundtrip("{\"cmd\": \"verify\", \"kernel\": \"" +
                                    kernel.string() + "\"}");
  std::filesystem::remove(kernel);
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "error");
  EXPECT_EQ(reply.at("exit_code").as_u64(), 2u);
  EXPECT_NE(reply.at("errors").as_string().find("the limit is"),
            std::string::npos)
      << reply.at("errors").as_string();
  EXPECT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
}

TEST_F(ServeTest, HugeAddressDataFileFailsSoftlyAndDaemonKeepsAnswering) {
  // A 15-byte saxpy.x.dat sidecar storing to address 99,999,999,999 would
  // make the loader zero ~800 GB; it fails its one job as an input error.
  std::filesystem::path dir = unique_socket("huge_address");
  dir.replace_extension();
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(kernel_path("saxpy.k"), dir / "saxpy.k");
  std::filesystem::copy_file(kernel_path("saxpy.args"), dir / "saxpy.args");
  util::write_file(dir / "saxpy.x.dat", "@99999999999 1\n");
  util::JsonValue reply = roundtrip("{\"cmd\": \"verify\", \"kernel\": \"" +
                                    (dir / "saxpy.k").string() + "\"}");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "error");
  EXPECT_EQ(reply.at("exit_code").as_u64(), 2u);
  EXPECT_NE(reply.at("errors").as_string().find("the limit is"),
            std::string::npos)
      << reply.at("errors").as_string();
  EXPECT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
}

TEST_F(ServeTest, WarmResubmissionHitsCacheWithIdenticalReport) {
  std::string submit = "{\"cmd\": \"verify\", \"kernel\": \"" +
                       kernel_path("saxpy.k").string() + "\"}";
  util::JsonValue cold = roundtrip(submit);
  ASSERT_TRUE(cold.at("ok").as_bool());
  EXPECT_EQ(cold.at("status").as_string(), "done");
  EXPECT_EQ(cold.at("exit_code").as_u64(), 0u);
  EXPECT_FALSE(cold.at("cache_hit").as_bool());

  util::JsonValue warm = roundtrip(submit);
  ASSERT_TRUE(warm.at("ok").as_bool());
  EXPECT_EQ(warm.at("status").as_string(), "done");
  EXPECT_EQ(warm.at("exit_code").as_u64(), 0u);
  EXPECT_TRUE(warm.at("cache_hit").as_bool());

  // Byte-identical apart from wall-clock fields.
  EXPECT_EQ(mask_wall_clock(cold.at("output").as_string()),
            mask_wall_clock(warm.at("output").as_string()));
  EXPECT_GE(server_->cache().stats().hits, 1u);
}

TEST_F(ServeTest, SuiteJobRunsTheSampleSuite) {
  std::string dir = kernel_path("saxpy.k").parent_path().string();
  util::JsonValue reply = roundtrip(
      "{\"cmd\": \"suite\", \"dir\": \"" + dir + "\", \"jobs\": 2}");
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "done");
  EXPECT_EQ(reply.at("exit_code").as_u64(), 0u);
  EXPECT_NE(reply.at("output").as_string().find("suite PASSED"),
            std::string::npos);
}

TEST_F(ServeTest, LintJobReportsFindingsAndExitCode) {
  std::string bad = (std::filesystem::path(FTI_TEST_DATA_DIR) / "lint" /
                     "bad_multidriver.xml")
                        .string();
  util::JsonValue reply = roundtrip(
      "{\"cmd\": \"lint\", \"inputs\": [\"" + bad + "\"]}");
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "done");
  EXPECT_EQ(reply.at("exit_code").as_u64(), 3u);
}

TEST_F(ServeTest, AsyncSubmitStatusPollAndMetrics) {
  std::string submit = "{\"cmd\": \"verify\", \"kernel\": \"" +
                       kernel_path("saxpy.k").string() +
                       "\", \"wait\": false}";
  util::JsonValue queued = roundtrip(submit);
  ASSERT_TRUE(queued.at("ok").as_bool());
  std::uint64_t id = queued.at("job").as_u64();
  // wait:false replies before completion; poll until terminal.
  std::string status;
  for (int i = 0; i < 600; ++i) {
    util::JsonValue reply = roundtrip(
        "{\"cmd\": \"status\", \"job\": " + std::to_string(id) + "}");
    status = reply.at("status").as_string();
    if (status == "done" || status == "error" || status == "cancelled") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(status, "done");

  util::JsonValue metrics = roundtrip("{\"cmd\": \"metrics\"}");
  ASSERT_TRUE(metrics.at("ok").as_bool());
  const util::JsonValue& snapshot = metrics.at("snapshot");
  EXPECT_EQ(snapshot.at("snapshot").as_string(), "serve");
  bool saw_cache_counter = false;
  for (const util::JsonValue& metric : snapshot.at("metrics").items) {
    if (metric.at("name").as_string().rfind("cache.", 0) == 0) {
      saw_cache_counter = true;
    }
  }
  EXPECT_TRUE(saw_cache_counter);
}

TEST_F(ServeTest, CancelledQueuedJobNeverRuns) {
  // Saturate both workers plus the queue with suite jobs, then cancel
  // the queued one before a worker can pick it up.
  std::string dir = kernel_path("saxpy.k").parent_path().string();
  std::string suite =
      "{\"cmd\": \"suite\", \"dir\": \"" + dir + "\", \"wait\": false}";
  roundtrip(suite);
  roundtrip(suite);
  util::JsonValue queued = roundtrip(suite);
  std::uint64_t id = queued.at("job").as_u64();
  roundtrip("{\"cmd\": \"cancel\", \"job\": " + std::to_string(id) + "}");
  std::string status;
  for (int i = 0; i < 600; ++i) {
    util::JsonValue reply = roundtrip(
        "{\"cmd\": \"status\", \"job\": " + std::to_string(id) + "}");
    status = reply.at("status").as_string();
    if (status == "done" || status == "error" || status == "cancelled") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Cooperative cancel: the flag was set while the job sat in the queue
  // (or at the latest mid-run), so it must land in "cancelled" unless a
  // worker finished it before the flag arrived.
  EXPECT_TRUE(status == "cancelled" || status == "done") << status;
}

TEST_F(ServeTest, JobTableKeepsABoundedNumberOfFinishedJobs) {
  // A long verify job stays in flight while more than kMaxFinishedJobs
  // quick jobs finish: the first quick jobs to finish leave the table,
  // the long one (the oldest id of all) never does.
  std::filesystem::path dir = util::scratch_dir("serve-job-table");
  util::write_file(dir / "spin.k",
                   "kernel spin(int a[1], int n) {\n"
                   "  int i;\n"
                   "  int s;\n"
                   "  s = 0;\n"
                   "  for (i = 0; i < n; i = i + 1) {\n"
                   "    s = s + i;\n"
                   "  }\n"
                   "  a[0] = s;\n"
                   "}\n");
  util::write_file(dir / "spin.args", "n=1000000\n");
  util::JsonValue spin = roundtrip("{\"cmd\": \"verify\", \"kernel\": \"" +
                                   (dir / "spin.k").string() +
                                   "\", \"wait\": false}");
  ASSERT_TRUE(spin.at("ok").as_bool());
  const std::uint64_t spin_id = spin.at("job").as_u64();

  const std::string quick =
      "{\"cmd\": \"lint\", \"inputs\": [\"no_such_design.xml\"]}";
  std::vector<std::uint64_t> quick_ids;
  for (std::size_t i = 0; i < Server::kMaxFinishedJobs + 2; ++i) {
    util::JsonValue reply = roundtrip(quick);
    ASSERT_TRUE(reply.at("ok").as_bool());
    quick_ids.push_back(reply.at("job").as_u64());
  }
  auto status_of = [&](std::uint64_t id) {
    return roundtrip("{\"cmd\": \"status\", \"job\": " + std::to_string(id) +
                     "}");
  };
  // At least kMaxFinishedJobs + 2 jobs have finished, so the first two
  // quick jobs are gone: status and cancel fail softly, like any unknown
  // id.
  for (std::size_t i = 0; i < 2; ++i) {
    std::string id = std::to_string(quick_ids[i]);
    for (const char* cmd : {"status", "cancel"}) {
      util::JsonValue reply = roundtrip(std::string("{\"cmd\": \"") + cmd +
                                        "\", \"job\": " + id + "}");
      EXPECT_FALSE(reply.at("ok").as_bool()) << cmd << " " << id;
      EXPECT_NE(reply.at("error").as_string().find("unknown job"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(status_of(quick_ids.back()).at("ok").as_bool());

  std::string status;
  for (int i = 0; i < 600; ++i) {
    util::JsonValue reply = status_of(spin_id);
    ASSERT_TRUE(reply.at("ok").as_bool()) << "in-flight job was evicted";
    status = reply.at("status").as_string();
    if (status == "done" || status == "error" || status == "cancelled") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(status, "done");
  EXPECT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
}

TEST_F(ServeTest, ShutdownRequestWakesWait) {
  std::thread waiter([this] { server_->wait(); });
  util::JsonValue reply = roundtrip("{\"cmd\": \"shutdown\"}");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("status").as_string(), "stopping");
  waiter.join();
  // The daemon already tore down; a new client connection must fail.
  EXPECT_THROW(request(server_->socket_path(), "{\"cmd\": \"ping\"}"),
               util::Error);
}

/// Raw client socket with none of request()'s read-back machinery, for
/// simulating clients that vanish mid-conversation.
int raw_connect(const std::filesystem::path& socket_path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = socket_path.string();
  EXPECT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

TEST_F(ServeTest, ClientDisconnectMidResponseDoesNotKillTheDaemon) {
  // Submit a real synchronous job, then hang up before the reply can be
  // written: the worker finishes seconds later and its reply write hits
  // a dead socket.  Pre-fix this raised SIGPIPE and took the whole
  // daemon down; now it must be a soft per-connection failure.
  std::string submit = "{\"cmd\": \"verify\", \"kernel\": \"" +
                       kernel_path("saxpy.k").string() + "\"}\n";
  int fd = raw_connect(server_->socket_path());
  ASSERT_EQ(::send(fd, submit.data(), submit.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(submit.size()));
  ::shutdown(fd, SHUT_WR);
  ::close(fd);  // gone before the job completes, reply has no reader

  // The daemon must stay reachable while (and after) that orphaned job
  // completes, and must still take new work to a happy end state.
  util::JsonValue pong = roundtrip("{\"cmd\": \"ping\"}");
  EXPECT_TRUE(pong.at("ok").as_bool());
  util::JsonValue redo = roundtrip(
      "{\"cmd\": \"verify\", \"kernel\": \"" +
      kernel_path("saxpy.k").string() + "\"}");
  ASSERT_TRUE(redo.at("ok").as_bool());
  EXPECT_EQ(redo.at("status").as_string(), "done");
  EXPECT_EQ(redo.at("exit_code").as_u64(), 0u);
}

TEST_F(ServeTest, OversizeRequestGetsErrorReplyAndDaemonKeepsAnswering) {
  // One byte past the limit and no newline: the daemon must stop reading,
  // reply with the "exceeds" error and keep serving.
  const std::string oversize(Server::kMaxRequestBytes + 1, 'x');
  int fd = raw_connect(server_->socket_path());
  std::size_t sent = 0;
  while (sent < oversize.size()) {
    ssize_t n = ::send(fd, oversize.data() + sent, oversize.size() - sent,
                       MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buffer[4096];
  for (ssize_t n; (n = ::read(fd, buffer, sizeof(buffer))) > 0;) {
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  util::JsonValue doc = util::parse_json(reply);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").as_string(),
            "request exceeds " +
                std::to_string(Server::kMaxRequestBytes) + " bytes");
  EXPECT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
}

TEST_F(ServeTest, FinishedConnectionHandlersAreReaped) {
  // Each connection gets a handler thread; the accept loop joins the
  // finished ones before starting the next, so sequential clients never
  // pile threads up however many requests the daemon serves.
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool())
        << "round " << round;
  }
  // Only handlers still returning when the last few connections were
  // accepted may remain; without reaping this would be 200.
  EXPECT_LE(server_->live_connections(), 8u);
}

TEST_F(ServeTest, ConnectionPastTheCapGetsBusyAndDaemonKeepsAnswering) {
  // Hold kMaxConnections connections open, each with a handler blocked
  // reading its request line.  They close on every exit path, because
  // shutdown joins their handlers.
  struct Held {
    std::vector<int> fds;
    void close_all() {
      for (int fd : fds) {
        ::close(fd);
      }
      fds.clear();
    }
    ~Held() { close_all(); }
  } held;
  for (std::size_t i = 0; i < Server::kMaxConnections; ++i) {
    held.fds.push_back(raw_connect(server_->socket_path()));
  }
  for (int wait = 0; wait < 1000 && server_->live_connections() <
                                         Server::kMaxConnections;
       ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server_->live_connections(), Server::kMaxConnections);

  // One more: refused with a reply, before it has sent anything.  The
  // receive timeout turns a missing reply into a failure, not a hang.
  int extra = raw_connect(server_->socket_path());
  timeval timeout{10, 0};
  ::setsockopt(extra, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string reply;
  char buffer[256];
  for (ssize_t n; (n = ::read(extra, buffer, sizeof(buffer))) > 0;) {
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(extra);
  ASSERT_FALSE(reply.empty()) << "no reply past the cap";
  util::JsonValue busy = util::parse_json(reply);
  EXPECT_FALSE(busy.at("ok").as_bool());
  EXPECT_EQ(busy.at("error").as_string(), "busy");
  EXPECT_EQ(server_->live_connections(), Server::kMaxConnections);

  // Hanging up frees the handlers; once they return, ping is served
  // again (a ping that races the last handler's return may still be
  // told "busy").
  held.close_all();
  bool answered = false;
  for (int attempt = 0; attempt < 1000 && !answered; ++attempt) {
    util::JsonValue pong = roundtrip("{\"cmd\": \"ping\"}");
    answered = pong.at("ok").as_bool();
    if (!answered) {
      EXPECT_EQ(pong.at("error").as_string(), "busy");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(answered);
}

TEST_F(ServeTest, SecondDaemonOnALiveSocketRefusesToStart) {
  ServerOptions options;
  options.socket_path = server_->socket_path();
  Server second(options);
  try {
    second.start();
    FAIL() << "start() must refuse to hijack a live daemon's socket";
  } catch (const util::Error& error) {
    std::string message = error.what();
    EXPECT_NE(message.find("another daemon is already serving"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("ping answered"), std::string::npos) << message;
  }
  // The refusal must leave the running daemon untouched: socket file
  // still present, still answering.
  EXPECT_TRUE(std::filesystem::exists(server_->socket_path()));
  EXPECT_TRUE(roundtrip("{\"cmd\": \"ping\"}").at("ok").as_bool());
}

TEST(ServeServer, StaleSocketFileFromACrashedDaemonIsReclaimed) {
  std::filesystem::path path = unique_socket("stale");
  // Bind then close without unlinking -- the on-disk state a crashed
  // daemon leaves behind (file exists, connect() gets ECONNREFUSED).
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.string().size() + 1);
  ASSERT_EQ(
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);
  ASSERT_TRUE(std::filesystem::exists(path));

  ServerOptions options;
  options.socket_path = path;
  options.jobs = 1;
  Server server(options);
  server.start();  // must reclaim the stale file, not refuse
  util::JsonValue pong =
      util::parse_json(request(path, "{\"cmd\": \"ping\"}"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  server.shutdown();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeClient, UnreachableDaemonThrows) {
  EXPECT_THROW(request(unique_socket("nothere"), "{\"cmd\": \"ping\"}"),
               util::Error);
}

TEST(ServeServer, SocketPathTooLongThrows) {
  ServerOptions options;
  options.socket_path =
      std::filesystem::temp_directory_path() / std::string(200, 'x');
  Server server(options);
  EXPECT_THROW(server.start(), util::Error);
}

}  // namespace
}  // namespace fti::serve
