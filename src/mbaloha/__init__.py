"""Slotted Aloha with multiple geographically deployed base stations."""

__version__ = "0.1.0"
