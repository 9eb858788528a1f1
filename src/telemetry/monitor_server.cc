#include "telemetry/monitor_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/json.h"

namespace cascade::telemetry {

namespace {

void
set_nonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) {
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
}

std::string
response_head(int status, const std::string& reason,
              const std::string& content_type, size_t content_length,
              bool has_length)
{
    std::string head = "HTTP/1.1 " + std::to_string(status) + ' ' + reason +
                       "\r\nContent-Type: " + content_type +
                       "\r\nConnection: close\r\n";
    if (has_length) {
        head += "Content-Length: " + std::to_string(content_length) +
                "\r\n";
    }
    head += "\r\n";
    return head;
}

} // namespace

MonitorServer::~MonitorServer()
{
    stop();
}

void
MonitorServer::handle(const std::string& path,
                      const std::string& content_type,
                      std::function<std::string()> provider)
{
    endpoints_[path] = Endpoint{content_type, std::move(provider)};
}

void
MonitorServer::attach_journal(Journal* journal)
{
    journal_ = journal;
}

bool
MonitorServer::start(uint16_t port, std::string* err)
{
    if (running()) {
        if (err != nullptr) {
            *err = "monitor already running on port " +
                   std::to_string(this->port());
        }
        return false;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err != nullptr) {
            *err = std::string("socket: ") + std::strerror(errno);
        }
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, 16) < 0) {
        if (err != nullptr) {
            *err = "bind 127.0.0.1:" + std::to_string(port) + ": " +
                   std::strerror(errno);
        }
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    if (::pipe(wake_fds_) < 0) {
        if (err != nullptr) {
            *err = std::string("pipe: ") + std::strerror(errno);
        }
        ::close(fd);
        return false;
    }
    set_nonblocking(fd);
    set_nonblocking(wake_fds_[0]);
    set_nonblocking(wake_fds_[1]);
    listen_fd_ = fd;
    port_.store(ntohs(addr.sin_port), std::memory_order_release);
    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    if (journal_ != nullptr) {
        tap_id_ = journal_->add_tap(
            [this](const Journal::Event& event) { on_event(event); });
    }
    thread_ = std::thread([this] { run(); });
    return true;
}

void
MonitorServer::stop()
{
    if (!running()) {
        return;
    }
    // Detach the tap first: once stop begins no new events may touch
    // client state.
    if (journal_ != nullptr && tap_id_ >= 0) {
        journal_->remove_tap(tap_id_);
        tap_id_ = -1;
    }
    stopping_.store(true, std::memory_order_release);
    wake();
    if (thread_.joinable()) {
        thread_.join();
    }
    close_all();
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
    wake_fds_[0] = wake_fds_[1] = -1;
    port_.store(0, std::memory_order_release);
    running_.store(false, std::memory_order_release);
}

void
MonitorServer::wake()
{
    if (wake_fds_[1] >= 0) {
        const char b = 'w';
        [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
    }
}

void
MonitorServer::close_all()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& client : clients_) {
        ::close(client->fd);
    }
    clients_.clear();
}

void
MonitorServer::run()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        std::vector<pollfd> fds;
        std::vector<Client*> polled;
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const auto& client : clients_) {
                short events = 0;
                if (!client->streaming && !client->close_when_drained) {
                    events |= POLLIN;
                }
                if (!client->out.empty() || !client->queue.empty() ||
                    client->dropped != 0) {
                    events |= POLLOUT;
                }
                if (client->streaming) {
                    // Detect a scraper hanging up mid-stream.
                    events |= POLLIN;
                }
                fds.push_back(pollfd{client->fd, events, 0});
                polled.push_back(client.get());
            }
        }
        const int n = ::poll(fds.data(), fds.size(), 500);
        if (n < 0 && errno != EINTR) {
            break;
        }
        if (stopping_.load(std::memory_order_acquire)) {
            break;
        }
        if ((fds[1].revents & POLLIN) != 0) {
            char buf[64];
            while (::read(wake_fds_[0], buf, sizeof buf) > 0) {
            }
        }
        if ((fds[0].revents & POLLIN) != 0) {
            accept_clients();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t i = 0; i < polled.size(); ++i) {
            const short re = fds[2 + i].revents;
            Client* client = polled[i];
            // The client set only shrinks on this thread, so the pointer
            // is valid iff it is still registered.
            bool live = false;
            for (const auto& c : clients_) {
                if (c.get() == client) {
                    live = true;
                    break;
                }
            }
            if (!live) {
                continue;
            }
            service_client(*client, (re & (POLLIN | POLLHUP | POLLERR)) != 0,
                           (re & POLLOUT) != 0);
        }
        // Drop closed clients.
        std::vector<std::unique_ptr<Client>> keep;
        for (auto& client : clients_) {
            if (client->fd >= 0) {
                keep.push_back(std::move(client));
            }
        }
        clients_ = std::move(keep);
    }
}

void
MonitorServer::accept_clients()
{
    while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            return;
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto client = std::make_unique<Client>();
        client->fd = fd;
        std::lock_guard<std::mutex> lock(mutex_);
        clients_.push_back(std::move(client));
    }
}

void
MonitorServer::service_client(Client& client, bool readable, bool writable)
{
    if (readable && !client.streaming && !client.close_when_drained) {
        char buf[4096];
        while (true) {
            const ssize_t n = ::read(client.fd, buf, sizeof buf);
            if (n > 0) {
                client.in.append(buf, static_cast<size_t>(n));
                if (client.in.size() > 16 * 1024) {
                    ::close(client.fd);
                    client.fd = -1;
                    return;
                }
                continue;
            }
            if (n == 0) {
                ::close(client.fd);
                client.fd = -1;
                return;
            }
            break; // EAGAIN
        }
        const size_t end = client.in.find("\r\n\r\n");
        if (end != std::string::npos) {
            const size_t eol = client.in.find("\r\n");
            const std::string request = client.in.substr(0, eol);
            std::string path;
            if (request.rfind("GET ", 0) == 0) {
                const size_t sp = request.find(' ', 4);
                path = request.substr(4, sp == std::string::npos
                                             ? std::string::npos
                                             : sp - 4);
                const size_t q = path.find('?');
                if (q != std::string::npos) {
                    path.resize(q);
                }
            }
            respond(client, path);
        }
    } else if (readable && client.streaming) {
        // Any read activity on a streaming socket means EOF or error —
        // the scraper hung up.
        char buf[256];
        const ssize_t n = ::read(client.fd, buf, sizeof buf);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
            ::close(client.fd);
            client.fd = -1;
            return;
        }
    }
    if (client.fd < 0) {
        return;
    }
    if (writable || !client.out.empty() || client.streaming) {
        if (client.streaming) {
            flush_stream(client);
        }
        while (!client.out.empty()) {
            const ssize_t n =
                ::write(client.fd, client.out.data(), client.out.size());
            if (n > 0) {
                client.out.erase(0, static_cast<size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            }
            ::close(client.fd);
            client.fd = -1;
            return;
        }
        if (client.close_when_drained && client.out.empty()) {
            ::close(client.fd);
            client.fd = -1;
        }
    }
}

void
MonitorServer::respond(Client& client, const std::string& path)
{
    if (path == "/events") {
        begin_event_stream(client);
        return;
    }
    const auto it = endpoints_.find(path);
    if (it == endpoints_.end()) {
        const std::string body = "not found\n";
        client.out = response_head(404, "Not Found", "text/plain",
                                   body.size(), true) +
                     body;
    } else {
        const std::string body = it->second.provider
                                     ? it->second.provider()
                                     : std::string();
        client.out = response_head(200, "OK", it->second.content_type,
                                   body.size(), true) +
                     body;
    }
    client.close_when_drained = true;
}

void
MonitorServer::begin_event_stream(Client& client)
{
    client.out = response_head(200, "OK", "application/x-ndjson", 0, false);
    client.streaming = true;
    if (journal_ != nullptr) {
        // Replay the ring first. The tap dedups against last_seq, so an
        // event that lands between this snapshot and the tap firing is
        // sent exactly once. (We hold mutex_ here; the tap blocks on it.)
        for (const Journal::Event& event : journal_->ring()) {
            client.queue.push_back(Journal::event_json(event));
            client.last_seq = event.seq;
        }
    }
}

void
MonitorServer::on_event(const Journal::Event& event)
{
    bool any = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& client : clients_) {
            if (!client->streaming || client->fd < 0 ||
                event.seq <= client->last_seq) {
                continue;
            }
            if (client->queue.size() >= kMaxQueuedLines) {
                client->queue.pop_front();
                ++client->dropped;
                events_dropped_.fetch_add(1, std::memory_order_relaxed);
            }
            client->queue.push_back(Journal::event_json(event));
            client->last_seq = event.seq;
            any = true;
        }
    }
    if (any) {
        wake();
    }
}

void
MonitorServer::flush_stream(Client& client)
{
    // Move queued lines into the write buffer, prefixing a gap notice
    // where backpressure dropped lines (the drop point is the queue
    // front, since on_event drops oldest-first).
    while (!client.queue.empty() && client.out.size() < 64 * 1024) {
        if (client.dropped != 0) {
            client.out += JsonWriter().num("dropped", client.dropped).build();
            client.out += '\n';
            client.dropped = 0;
        }
        client.out += client.queue.front();
        client.out += '\n';
        client.queue.pop_front();
    }
}

bool
http_get(uint16_t port, const std::string& path, int* status,
         std::string* body, std::string* err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err != nullptr) {
            *err = std::string("socket: ") + std::strerror(errno);
        }
        return false;
    }
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
        if (err != nullptr) {
            *err = "connect 127.0.0.1:" + std::to_string(port) + ": " +
                   std::strerror(errno);
        }
        ::close(fd);
        return false;
    }
    const std::string request = "GET " + path +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                "Connection: close\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::write(fd, request.data() + sent,
                                  request.size() - sent);
        if (n <= 0) {
            if (err != nullptr) {
                *err = std::string("write: ") + std::strerror(errno);
            }
            ::close(fd);
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    std::string response;
    char buf[4096];
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            response.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n == 0) {
            break;
        }
        if (errno == EINTR) {
            continue;
        }
        if (err != nullptr) {
            *err = std::string("read: ") + std::strerror(errno);
        }
        ::close(fd);
        return false;
    }
    ::close(fd);
    const size_t head_end = response.find("\r\n\r\n");
    if (head_end == std::string::npos ||
        response.rfind("HTTP/1.1 ", 0) != 0) {
        if (err != nullptr) {
            *err = "malformed HTTP response";
        }
        return false;
    }
    if (status != nullptr) {
        *status = std::atoi(response.c_str() + 9);
    }
    if (body != nullptr) {
        *body = response.substr(head_end + 4);
    }
    return true;
}

bool
http_stream_lines(uint16_t port, const std::string& path, size_t n_lines,
                  int timeout_ms, std::vector<std::string>* lines,
                  std::string* err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err != nullptr) {
            *err = std::string("socket: ") + std::strerror(errno);
        }
        return false;
    }
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
        if (err != nullptr) {
            *err = "connect 127.0.0.1:" + std::to_string(port) + ": " +
                   std::strerror(errno);
        }
        ::close(fd);
        return false;
    }
    const std::string request = "GET " + path +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (::write(fd, request.data(), request.size()) !=
        static_cast<ssize_t>(request.size())) {
        if (err != nullptr) {
            *err = std::string("write: ") + std::strerror(errno);
        }
        ::close(fd);
        return false;
    }
    set_nonblocking(fd);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::string pending;
    bool in_body = false;
    while (lines->size() < n_lines) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
            ::close(fd);
            if (err != nullptr) {
                *err = "timeout after " + std::to_string(lines->size()) +
                       " lines";
            }
            return false;
        }
        pollfd pfd = {fd, POLLIN, 0};
        const int remaining = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count());
        const int pr = ::poll(&pfd, 1, std::max(1, remaining));
        if (pr <= 0) {
            continue;
        }
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n == 0) {
            ::close(fd);
            if (err != nullptr) {
                *err = "stream closed after " +
                       std::to_string(lines->size()) + " lines";
            }
            return false;
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR) {
                continue;
            }
            ::close(fd);
            if (err != nullptr) {
                *err = std::string("read: ") + std::strerror(errno);
            }
            return false;
        }
        pending.append(buf, static_cast<size_t>(n));
        if (!in_body) {
            const size_t head_end = pending.find("\r\n\r\n");
            if (head_end == std::string::npos) {
                continue;
            }
            if (pending.rfind("HTTP/1.1 200", 0) != 0) {
                ::close(fd);
                if (err != nullptr) {
                    *err = "HTTP error: " +
                           pending.substr(0, pending.find("\r\n"));
                }
                return false;
            }
            pending.erase(0, head_end + 4);
            in_body = true;
        }
        size_t eol;
        while (lines->size() < n_lines &&
               (eol = pending.find('\n')) != std::string::npos) {
            lines->push_back(pending.substr(0, eol));
            pending.erase(0, eol + 1);
        }
    }
    ::close(fd);
    return true;
}

} // namespace cascade::telemetry
