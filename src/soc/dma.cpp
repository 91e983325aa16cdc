#include "soc/dma.hpp"

#include <vector>

#include "kernel/simulation.hpp"

namespace adriatic::soc {

Dma::Dma(kern::Object& parent, std::string name, bus::addr_t base,
         usize chunk_words)
    : Module(parent, std::move(name)),
      mst_port(*this, "mst_port"),
      base_(base),
      chunk_words_(chunk_words == 0 ? 1 : chunk_words),
      start_event_(sim(), this->name() + ".start"),
      done_event_(sim(), this->name() + ".done") {
  spawn_thread("worker", [this] { worker(); }).set_daemon();
}

bool Dma::read(bus::addr_t add, bus::word* data) {
  if (add < base_ || add > get_high_add() || data == nullptr) return false;
  switch (add - base_) {
    case kCtrl:
      *data = 0;
      return true;
    case kStatus:
      *data = status_;
      return true;
    case kSrc:
      *data = src_;
      return true;
    case kDst:
      *data = dst_;
      return true;
    case kLen:
      *data = len_;
      return true;
    default:
      *data = 0;
      return true;
  }
}

bool Dma::write(bus::addr_t add, bus::word* data) {
  if (add < base_ || add > get_high_add() || data == nullptr) return false;
  switch (add - base_) {
    case kCtrl:
      if (*data == 1) {
        if (status_ == kBusy) return false;
        status_ = kBusy;
        start_event_.notify_delta();
      }
      return true;
    case kStatus:
      if (*data == 0 && status_ == kDone) status_ = kIdle;
      return true;
    case kSrc:
      src_ = *data;
      return true;
    case kDst:
      dst_ = *data;
      return true;
    case kLen:
      len_ = *data;
      return true;
    default:
      return false;
  }
}

void Dma::worker() {
  for (;;) {
    kern::wait(start_event_);
    usize remaining = static_cast<usize>(len_);
    bus::addr_t s = static_cast<bus::addr_t>(src_);
    bus::addr_t d = static_cast<bus::addr_t>(dst_);
    while (remaining > 0) {
      const usize chunk = std::min(chunk_words_, remaining);
      buffer_.assign(chunk, 0);
      mst_port->burst_read(s, buffer_, 0);
      mst_port->burst_write(d, buffer_, 0);
      stats_.words_moved += chunk;
      s += static_cast<bus::addr_t>(chunk);
      d += static_cast<bus::addr_t>(chunk);
      remaining -= chunk;
    }
    ++stats_.transfers;
    status_ = kDone;
    done_event_.notify_delta();
  }
}

}  // namespace adriatic::soc
